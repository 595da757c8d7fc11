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
// arena) are pointer-free — the GC never scans them. The runs are
// built by counting sorts over the dense entity-ID space (see
// buildPostings), in time linear in the facts plus the IDs, so a
// closure build can afford to rebuild its base every round.
package store

import (
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
		for len(added) > 0 && fact.Compare(added[0], f) < 0 {
			out = append(out, added[0])
			added = added[1:]
		}
		out = append(out, f)
	}
	return append(out, added...)
}

// buildPostings takes ownership of fs, which must be sorted by
// fact.Compare and duplicate-free, and builds the compressed index.
//
// The posting runs come from stable counting sorts of the fact IDs
// over the dense sym.ID key space, not from per-key lists: one pass
// by R and one by T give the R and T runs; two passes, T first and
// then R or S, give the RT and ST runs. Each pass leaves the IDs
// grouped by key in ascending key order and ascending within a key,
// so every run is encoded straight from a subslice, and each map is
// presized from its exact key count. Transient memory is two ID
// permutations plus one counter per entity ID, whatever the skew.
func buildPostings(fs []fact.Fact) *postings {
	// Each fact is in four runs, mostly at one or two bytes each (the
	// campus worlds average 6 bytes per fact).
	p := &postings{facts: fs, enc: make([]byte, 0, 8*len(fs))}
	p.spans()
	var top sym.ID
	for _, f := range fs {
		top = max(top, f.S, f.R, f.T)
	}
	e := idSorter{fs: fs, counts: make([]uint32, int(top)+2)}
	byR, byT := make([]uint32, len(fs)), make([]uint32, len(fs))
	p.byR = encodeByID(p, byR, e.sort(byR, nil, colR), colR)
	p.byT = encodeByID(p, byT, e.sort(byT, nil, colT), colT)
	e.sort(byR, byT, colR) // now by (R, T)
	p.byRT = encodeByPair(p, byR, colR, colT)
	e.sort(byR, byT, colS) // now by (S, T)
	p.byST = encodeByPair(p, byR, colS, colT)
	return p
}

// spans fills byS and bySR: facts sorted by (S, R, T) means every S
// run and every (S, R) run is a single range of the array.
func (p *postings) spans() {
	fs := p.facts
	nS, nSR := 0, 0
	for i := range fs {
		if i == 0 || fs[i].S != fs[i-1].S {
			nS++
			nSR++
		} else if fs[i].R != fs[i-1].R {
			nSR++
		}
	}
	p.byS = make(map[sym.ID]span, nS)
	p.bySR = make(map[pair]span, nSR)
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
}

// column names one position of a fact.
type column uint8

const (
	colS column = iota
	colR
	colT
)

func (c column) of(f fact.Fact) sym.ID {
	switch c {
	case colS:
		return f.S
	case colR:
		return f.R
	}
	return f.T
}

// idSorter stably counting-sorts fact IDs by one column.
type idSorter struct {
	fs     []fact.Fact
	counts []uint32 // one counter per entity ID, plus one
}

// sort writes the IDs of src (every fact ID in order when src is nil)
// into dst, stably sorted by column c, and returns the number of
// distinct keys.
func (e *idSorter) sort(dst, src []uint32, c column) int {
	cnt, fs := e.counts, e.fs
	clear(cnt)
	if src == nil {
		for _, f := range fs {
			cnt[c.of(f)+1]++
		}
	} else {
		for _, id := range src {
			cnt[c.of(fs[id])+1]++
		}
	}
	keys := 0
	for k := 1; k < len(cnt); k++ {
		if cnt[k] != 0 {
			keys++
		}
		cnt[k] += cnt[k-1] // cnt[k] is now where key k's IDs start
	}
	if src == nil {
		for i, f := range fs {
			k := c.of(f)
			dst[cnt[k]] = uint32(i)
			cnt[k]++
		}
	} else {
		for _, id := range src {
			k := c.of(fs[id])
			dst[cnt[k]] = id
			cnt[k]++
		}
	}
	return keys
}

// encodeByID encodes the runs of ids, grouped by column c, into p.enc
// in key order.
func encodeByID(p *postings, ids []uint32, keys int, c column) map[sym.ID]plist {
	out := make(map[sym.ID]plist, keys)
	for i := 0; i < len(ids); {
		k := c.of(p.facts[ids[i]])
		j := i + 1
		for j < len(ids) && c.of(p.facts[ids[j]]) == k {
			j++
		}
		out[k] = p.appendRun(ids[i:j])
		i = j
	}
	return out
}

// encodeByPair is encodeByID for ids grouped by the column pair
// (a, b). The pair count is not known from the sort, so a first walk
// counts the groups to presize the map.
func encodeByPair(p *postings, ids []uint32, a, b column) map[pair]plist {
	fs := p.facts
	key := func(id uint32) pair { return pair{a.of(fs[id]), b.of(fs[id])} }
	keys := 0
	for i := range ids {
		if i == 0 || key(ids[i]) != key(ids[i-1]) {
			keys++
		}
	}
	out := make(map[pair]plist, keys)
	for i := 0; i < len(ids); {
		k := key(ids[i])
		j := i + 1
		for j < len(ids) && key(ids[j]) == k {
			j++
		}
		out[k] = p.appendRun(ids[i:j])
		i = j
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
	slices.SortFunc(fs, fact.Compare)
	return sealedBase(u, buildPostings(slices.Compact(fs)))
}

// SealedWith returns a new sealed store holding s's facts plus added,
// built by one linear merge of the two sorted arrays and one posting
// build; s is unchanged and still readable. s must be a sealed store
// with no delta or tombstones (SealedFromFacts or SealedWith built
// it), and added must be sorted by fact.Compare, duplicate-free and
// disjoint from s. The closure build folds each round's new facts
// into the next generation this way.
func (s *Store) SealedWith(added []fact.Fact) *Store {
	if !s.sealed || len(s.add.facts)+len(s.dead.facts) != 0 {
		panic("store: SealedWith on a store that is not a folded sealed store")
	}
	return sealedBase(s.u, buildPostings(mergeLive(s.base.facts, nil, added)))
}

// sealedBase wraps a posting base as a sealed store whose version is
// its fact count, as if each fact had been inserted once.
func sealedBase(u *fact.Universe, p *postings) *Store {
	s := &Store{u: u, sealed: true, base: p}
	s.version.Store(uint64(len(p.facts)))
	s.recentBase = s.version.Load()
	return s
}
