// Compressed posting-list index: the immutable base layer of a Store.
//
// A base never changes once built, so the six hash indexes of the
// delta layer (map[K][]fact.Fact, each bucket a distinct slice of
// 12-byte facts) are replaced by one sorted fact array plus per-bucket
// runs of fact IDs. Facts are sorted by (S, R, T) and identified by
// their position, which buys two compressions for free:
//
//   - The S and SR buckets are *contiguous ranges* of the sorted array,
//     stored as [lo, hi) spans — zero bytes of postings, and MatchAll
//     can hand out the range as a zero-copy subslice.
//   - The R, T, RT and ST buckets are ascending fact-ID runs,
//     delta+varint encoded into one shared byte arena. Typical deltas
//     fit in 1–2 bytes versus the 12-byte facts the hash buckets
//     duplicated per index.
//
// A folded store therefore holds each fact once plus a few bytes of
// postings per index entry, and the large allocations (fact array, enc
// arena) are pointer-free — the GC never scans them.
package store

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/fact"
	"repro/internal/sym"
)

// span is a contiguous run facts[lo:hi] of the sealed fact array.
type span struct{ lo, hi uint32 }

// plist locates one compressed posting run inside postings.enc.
type plist struct {
	off uint32 // byte offset of the run's first varint
	n   uint32 // number of fact IDs in the run
}

// postings is the immutable base layer of a Store. Clones share it by
// pointer.
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

// emptyBase is the base of every store that has not folded yet. Its
// maps are nil: lookups miss, nothing ever writes to a base.
var emptyBase = &postings{}

// compareSRT orders facts by (S, R, T), the order of the base array.
func compareSRT(a, b fact.Fact) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.T, b.T)
}

func sortFactsSRT(fs []fact.Fact) { slices.SortFunc(fs, compareSRT) }

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

// mergeLive is the fold: one linear pass over the sorted base array,
// skipping tombstoned facts, merged with the sorted delta (disjoint
// from the base by the Store invariant), into a fresh array that is
// sorted and duplicate-free by construction.
func mergeLive(base []fact.Fact, dead map[fact.Fact]struct{}, added []fact.Fact) []fact.Fact {
	out := make([]fact.Fact, 0, len(base)-len(dead)+len(added))
	for _, f := range base {
		if _, gone := dead[f]; gone {
			continue
		}
		for len(added) > 0 && compareSRT(added[0], f) < 0 {
			out = append(out, added[0])
			added = added[1:]
		}
		out = append(out, f)
	}
	return append(out, added...)
}

// buildPostings takes ownership of fs, which must be sorted by
// (S, R, T) and duplicate-free, and builds the compressed index. The
// transient per-key ID lists are built and released one index at a
// time so peak memory stays bounded.
func buildPostings(fs []fact.Fact) *postings {
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

// match streams the base facts matching a pattern: spans iterate the
// fact array directly, posting runs stream-decode IDs with no
// allocation.
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

// estimate is the exact number of base facts matching the pattern;
// every answer is O(1).
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

// matchAll collects the base facts matching a pattern. Span-backed
// patterns (S, SR) and the all-wildcard pattern return
// capacity-clipped subslices of the fact array — zero-copy, and a
// caller append reallocates instead of clobbering the index.
// Posting-backed patterns materialize an exact-size slice
// (len == cap), preserving the same append contract.
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

// IndexStats describes a store's layers: the compressed base index
// and the sizes of the delta and tombstone layers on top of it. A
// freshly folded store has Delta == Tombstones == 0; a store that was
// never sealed has only a Delta.
type IndexStats struct {
	Facts          int // facts in the base (the fact-array length)
	SpanBuckets    int // contiguous-range buckets (S, SR)
	PostingBuckets int // compressed runs (R, T, RT, ST)
	PostingBytes   int // bytes of delta+varint posting arena
	Delta          int // facts added on top of the base
	Tombstones     int // base facts deleted
}

// Buckets returns the total index bucket count across both forms.
func (st IndexStats) Buckets() int { return st.SpanBuckets + st.PostingBuckets }

// IndexBytes estimates the base's deterministic footprint: the fact
// array (12 bytes per fact), the posting arena, and the key+value
// payload of every bucket (12 bytes each; map headers and hash-table
// overhead are excluded, being runtime-dependent). The hash-indexed
// layers are not included; Delta and Tombstones size them.
func (st IndexStats) IndexBytes() int {
	return st.Facts*12 + st.PostingBytes + st.Buckets()*12
}

// IndexStats returns the store's layer geometry in O(1). The live
// fact count is Facts + Delta − Tombstones.
func (s *Store) IndexStats() IndexStats {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	p := s.base
	return IndexStats{
		Facts:          len(p.facts),
		SpanBuckets:    len(p.byS) + len(p.bySR),
		PostingBuckets: len(p.byR) + len(p.byT) + len(p.byRT) + len(p.byST),
		PostingBytes:   len(p.enc),
		Delta:          len(s.add.facts),
		Tombstones:     len(s.dead.facts),
	}
}

// SealedFromFacts builds a sealed store directly in compressed form,
// skipping the hash-indexed delta entirely — the bulk-load path for
// memory-scale worlds, where building six hash maps only to fold them
// at seal time would double peak memory. It takes ownership of fs
// (which it sorts and dedups in place). The store's version is the
// distinct fact count, as if each fact had been inserted once.
func SealedFromFacts(u *fact.Universe, fs []fact.Fact) *Store {
	sortFactsSRT(fs)
	s := &Store{u: u, sealed: true, base: buildPostings(dedupFacts(fs))}
	s.version.Store(uint64(len(s.base.facts)))
	s.recentBase = s.version.Load()
	return s
}
