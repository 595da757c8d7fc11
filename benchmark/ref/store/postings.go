// Compressed posting-list index for sealed stores.
//
// A sealed store never changes again, so at seal time the six hash
// indexes (map[K][]fact.Fact, each bucket a distinct slice of 12-byte
// facts) are replaced by one sorted fact array plus per-bucket runs of
// fact IDs. Facts are sorted by (S, R, T) and identified by their
// position, which buys two compressions for free:
//
//   - The S and SR buckets are *contiguous ranges* of the sorted array,
//     stored as [lo, hi) spans — zero bytes of postings, and MatchAll
//     can hand out the range as a zero-copy subslice.
//   - The R, T, RT and ST buckets are ascending fact-ID runs,
//     delta+varint encoded into one shared byte arena. Typical deltas
//     fit in 1–2 bytes versus the 12-byte facts the hash buckets
//     duplicated per index.
//
// After the build the hash maps and the fact set map are dropped, so a
// sealed store holds each fact once plus a few bytes of postings per
// index entry, and the large allocations that remain (fact array, enc
// arena) are pointer-free — the GC never scans them.
package store

import (
	"encoding/binary"
	"sort"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/sym"
)

// span is a contiguous run facts[lo:hi] of the sealed fact array.
type span struct{ lo, hi uint32 }

// plist locates one compressed posting run inside postings.enc.
type plist struct {
	off uint32 // byte offset of the run's first varint
	n   uint32 // number of fact IDs in the run
}

// postings is the frozen read-side index of a sealed store.
type postings struct {
	facts []fact.Fact // sorted by (S, R, T); fact ID = index

	byS  map[sym.ID]span
	bySR map[pair]span

	byR  map[sym.ID]plist
	byT  map[sym.ID]plist
	byRT map[pair]plist
	byST map[pair]plist

	enc []byte // delta+varint encoded fact-ID runs
}

func sortFactsSRT(fs []fact.Fact) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.T < b.T
	})
}

func dedupFacts(fs []fact.Fact) []fact.Fact {
	if len(fs) < 2 {
		return fs
	}
	w := 1
	for i := 1; i < len(fs); i++ {
		if fs[i] != fs[w-1] {
			fs[w] = fs[i]
			w++
		}
	}
	return fs[:w]
}

// buildPostings takes ownership of fs, sorts and dedups it, and builds
// the compressed index. The transient per-key ID lists are built and
// released one index at a time so peak memory stays bounded.
func buildPostings(fs []fact.Fact) *postings {
	sortFactsSRT(fs)
	fs = dedupFacts(fs)
	p := &postings{
		facts: fs,
		byS:   make(map[sym.ID]span),
		bySR:  make(map[pair]span),
	}
	// Contiguous spans: facts sorted by (S, R, T) means every S run
	// and every (S, R) run is a single range of the array.
	for i := 0; i < len(fs); {
		s := fs[i].S
		j := i
		for j < len(fs) && fs[j].S == s {
			r := fs[j].R
			k := j
			for k < len(fs) && fs[k].S == s && fs[k].R == r {
				k++
			}
			p.bySR[pair{s, r}] = span{uint32(j), uint32(k)}
			j = k
		}
		p.byS[s] = span{uint32(i), uint32(j)}
		i = j
	}
	p.byR = encodeRuns(p, fs, func(f fact.Fact) sym.ID { return f.R },
		func(a, b sym.ID) bool { return a < b })
	p.byT = encodeRuns(p, fs, func(f fact.Fact) sym.ID { return f.T },
		func(a, b sym.ID) bool { return a < b })
	p.byRT = encodeRuns(p, fs, func(f fact.Fact) pair { return pair{f.R, f.T} }, pairLess)
	p.byST = encodeRuns(p, fs, func(f fact.Fact) pair { return pair{f.S, f.T} }, pairLess)
	return p
}

func pairLess(a, b pair) bool {
	if a.a != b.a {
		return a.a < b.a
	}
	return a.b < b.b
}

// encodeRuns groups fact IDs by key and varint-encodes each group into
// p.enc. Iterating fs in ID order appends ascending IDs per key, so
// the runs are strictly ascending by construction. Keys are encoded in
// sorted order to keep the arena layout deterministic.
func encodeRuns[K comparable](p *postings, fs []fact.Fact, keyOf func(fact.Fact) K, less func(K, K) bool) map[K]plist {
	ids := make(map[K][]uint32)
	for i, f := range fs {
		k := keyOf(f)
		ids[k] = append(ids[k], uint32(i))
	}
	keys := make([]K, 0, len(ids))
	for k := range ids {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	out := make(map[K]plist, len(ids))
	for _, k := range keys {
		out[k] = p.appendRun(ids[k])
	}
	return out
}

// AppendUvarintRun delta+varint encodes one ascending uint32 run onto
// dst and returns the extended slice. The first element is encoded
// absolute, every later element as its delta from the predecessor —
// the shared posting-run wire format of the sealed store index and the
// keyword search index (internal/search).
func AppendUvarintRun(dst []byte, run []uint32) []byte {
	prev := uint32(0)
	for i, id := range run {
		d := id - prev
		if i == 0 {
			d = id
		}
		dst = binary.AppendUvarint(dst, uint64(d))
		prev = id
	}
	return dst
}

// EachUvarintRun streams the n decoded IDs of a run encoded at the
// start of enc to fn, stopping early if fn returns false; it reports
// whether it ran to completion. The decode is allocation-free: one
// cursor, one accumulator.
func EachUvarintRun(enc []byte, n uint32, fn func(uint32) bool) bool {
	off := 0
	cur := uint32(0)
	for i := uint32(0); i < n; i++ {
		d, w := binary.Uvarint(enc[off:])
		off += w
		cur += uint32(d)
		if !fn(cur) {
			return false
		}
	}
	return true
}

// DecodeUvarintRun appends the n IDs encoded at the start of enc to
// dst and returns it. The result is strictly ascending when the run
// was encoded from an ascending slice.
func DecodeUvarintRun(enc []byte, n uint32, dst []uint32) []uint32 {
	EachUvarintRun(enc, n, func(id uint32) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// appendRun delta+varint encodes one ascending ID run into p.enc.
func (p *postings) appendRun(run []uint32) plist {
	off := uint32(len(p.enc))
	p.enc = AppendUvarintRun(p.enc, run)
	return plist{off: off, n: uint32(len(run))}
}

// eachID streams the decoded fact IDs of a run to fn, stopping early
// if fn returns false; it reports whether it ran to completion.
func (p *postings) eachID(pl plist, fn func(uint32) bool) bool {
	return EachUvarintRun(p.enc[pl.off:], pl.n, fn)
}

// decodeRun appends the run's fact IDs to dst and returns it. The
// result is strictly ascending.
func (p *postings) decodeRun(pl plist, dst []uint32) []uint32 {
	return DecodeUvarintRun(p.enc[pl.off:], pl.n, dst)
}

// has answers a fully bound probe: locate the (S, R) span, then binary
// search its T column (ascending within the span by the sort order).
func (p *postings) has(f fact.Fact) bool {
	sp, ok := p.bySR[pair{f.S, f.R}]
	if !ok {
		return false
	}
	run := p.facts[sp.lo:sp.hi]
	i := sort.Search(len(run), func(i int) bool { return run[i].T >= f.T })
	return i < len(run) && run[i].T == f.T
}

// match is the sealed Store.Match body: spans iterate the fact array
// directly, posting runs stream-decode IDs with no allocation.
func (p *postings) match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		f := fact.Fact{S: src, R: rel, T: tgt}
		if p.has(f) {
			return fn(f)
		}
		return true
	case src != sym.None && rel != sym.None:
		return p.eachSpan(p.bySR[pair{src, rel}], fn)
	case rel != sym.None && tgt != sym.None:
		return p.eachFact(p.byRT[pair{rel, tgt}], fn)
	case src != sym.None && tgt != sym.None:
		return p.eachFact(p.byST[pair{src, tgt}], fn)
	case src != sym.None:
		return p.eachSpan(p.byS[src], fn)
	case rel != sym.None:
		return p.eachFact(p.byR[rel], fn)
	case tgt != sym.None:
		return p.eachFact(p.byT[tgt], fn)
	default:
		for i := range p.facts {
			if !fn(p.facts[i]) {
				return false
			}
		}
		return true
	}
}

func (p *postings) eachSpan(sp span, fn func(fact.Fact) bool) bool {
	for _, f := range p.facts[sp.lo:sp.hi] {
		if !fn(f) {
			return false
		}
	}
	return true
}

func (p *postings) eachFact(pl plist, fn func(fact.Fact) bool) bool {
	return p.eachID(pl, func(id uint32) bool { return fn(p.facts[id]) })
}

// estimate is the sealed estimateLocked body: every answer is O(1).
func (p *postings) estimate(src, rel, tgt sym.ID) int {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if p.has(fact.Fact{S: src, R: rel, T: tgt}) {
			return 1
		}
		return 0
	case src != sym.None && rel != sym.None:
		sp := p.bySR[pair{src, rel}]
		return int(sp.hi - sp.lo)
	case rel != sym.None && tgt != sym.None:
		return int(p.byRT[pair{rel, tgt}].n)
	case src != sym.None && tgt != sym.None:
		return int(p.byST[pair{src, tgt}].n)
	case src != sym.None:
		sp := p.byS[src]
		return int(sp.hi - sp.lo)
	case rel != sym.None:
		return int(p.byR[rel].n)
	case tgt != sym.None:
		return int(p.byT[tgt].n)
	default:
		return len(p.facts)
	}
}

// matchAll is the sealed MatchAll body. Span-backed patterns (S, SR)
// and the all-wildcard pattern return capacity-clipped subslices of
// the fact array — zero-copy, and a caller append reallocates instead
// of clobbering the index. Posting-backed patterns materialize an
// exact-size slice (len == cap), preserving the same append contract.
func (p *postings) matchAll(src, rel, tgt sym.ID) []fact.Fact {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		f := fact.Fact{S: src, R: rel, T: tgt}
		if p.has(f) {
			return []fact.Fact{f}
		}
		return nil
	case src != sym.None && rel != sym.None:
		return p.clipSpan(p.bySR[pair{src, rel}])
	case rel != sym.None && tgt != sym.None:
		return p.materialize(p.byRT[pair{rel, tgt}])
	case src != sym.None && tgt != sym.None:
		return p.materialize(p.byST[pair{src, tgt}])
	case src != sym.None:
		return p.clipSpan(p.byS[src])
	case rel != sym.None:
		return p.materialize(p.byR[rel])
	case tgt != sym.None:
		return p.materialize(p.byT[tgt])
	default:
		return p.facts[:len(p.facts):len(p.facts)]
	}
}

func (p *postings) clipSpan(sp span) []fact.Fact {
	if sp.lo == sp.hi {
		return nil
	}
	return p.facts[sp.lo:sp.hi:sp.hi]
}

func (p *postings) materialize(pl plist) []fact.Fact {
	if pl.n == 0 {
		return nil
	}
	out := make([]fact.Fact, 0, pl.n)
	p.eachID(pl, func(id uint32) bool {
		out = append(out, p.facts[id])
		return true
	})
	return out
}

func (p *postings) hasEntity(id sym.ID) bool {
	if _, ok := p.byS[id]; ok {
		return true
	}
	if _, ok := p.byR[id]; ok {
		return true
	}
	_, ok := p.byT[id]
	return ok
}

func (p *postings) relationships() []RelStat {
	out := make([]RelStat, 0, len(p.byR))
	for r, pl := range p.byR {
		out = append(out, RelStat{Rel: r, Count: int(pl.n)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Rel < out[j].Rel
	})
	return out
}

func (p *postings) degree(id sym.ID) int {
	sp := p.byS[id]
	return int(sp.hi-sp.lo) + int(p.byT[id].n)
}

// IndexStats describes a sealed store's compressed index. The zero
// value is returned for unsealed stores, whose hash indexes have no
// compressed form.
type IndexStats struct {
	Facts          int // stored facts (also the fact-array length)
	SpanBuckets    int // contiguous-range buckets (S, SR)
	PostingBuckets int // compressed runs (R, T, RT, ST)
	PostingBytes   int // bytes of delta+varint posting arena
}

// Buckets returns the total index bucket count across both forms.
func (st IndexStats) Buckets() int { return st.SpanBuckets + st.PostingBuckets }

// IndexBytes estimates the sealed read path's deterministic footprint:
// the fact array (12 bytes per fact), the posting arena, and the
// key+value payload of every bucket (12 bytes each; map headers and
// hash-table overhead are excluded, being runtime-dependent).
func (st IndexStats) IndexBytes() int {
	return st.Facts*12 + st.PostingBytes + st.Buckets()*12
}

// IndexStats returns the sealed store's compressed-index geometry, or
// the zero value when the store is still mutable.
func (s *Store) IndexStats() IndexStats {
	if !s.sealed || s.idx == nil {
		return IndexStats{}
	}
	p := s.idx
	return IndexStats{
		Facts:          len(p.facts),
		SpanBuckets:    len(p.byS) + len(p.bySR),
		PostingBuckets: len(p.byR) + len(p.byT) + len(p.byRT) + len(p.byST),
		PostingBytes:   len(p.enc),
	}
}

// SealedFromFacts builds a sealed store directly in compressed form,
// skipping the mutable hash indexes entirely — the bulk-load path for
// memory-scale worlds, where building six hash maps only to drop them
// at seal time would double peak memory. It takes ownership of fs
// (which it sorts and dedups in place). The store's version is the
// distinct fact count, as if each fact had been inserted once.
func SealedFromFacts(u *fact.Universe, fs []fact.Fact) *Store {
	s := &Store{u: u, sealed: true}
	s.idx = buildPostings(fs)
	s.version.Store(uint64(len(s.idx.facts)))
	s.recentBase = s.version.Load()
	return s
}
