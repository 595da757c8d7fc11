// Compressed posting-list index: the immutable base layer of a Store.
//
// A base never changes once built, so the six hash indexes of the
// delta layer (map[K][]fact.Fact, each bucket a distinct slice of
// 12-byte facts) are replaced by one sorted fact array, runs of fact
// IDs, and directories that are plain arrays over the dense sym.ID
// space. Facts are sorted by (S, R, T) and identified by their
// position, which buys two compressions for free:
//
//   - An S bucket is a *contiguous range* of the sorted array, found
//     through one prefix-offset array over sym.ID (4 bytes per ID),
//     and an (S, R) bucket is a binary search for R inside it — zero
//     bytes of postings, and MatchAll can hand out the range as a
//     zero-copy subslice.
//   - The R, T, RT and ST buckets are ascending fact-ID runs,
//     delta+varint encoded into one shared byte arena. Typical deltas
//     fit in 1–2 bytes versus the 12-byte facts the hash buckets
//     duplicated per index. The R and T runs are found by indexing a
//     []plist by ID; the RT and ST runs through a CSR directory: a
//     dense offset per R (or S) into one sorted run of (T, plist)
//     entries, searched by T.
//
// A folded store therefore holds each fact once plus a few bytes of
// postings per index entry and a few words per entity ID, and every
// allocation is pointer-free — the GC never scans them. Runs and
// directories are built by counting sorts over the entity-ID space
// (see buildPostings) with no hashing, in time linear in the facts
// plus the IDs, so a closure build can afford to rebuild its base
// every round. Every lookup bounds-checks its key against the
// directory, so an ID above the base's largest is simply absent.
package store

import (
	"encoding/binary"
	"slices"

	"repro/internal/fact"
	"repro/internal/sym"
)

// span is a contiguous run facts[lo:hi] of the sealed fact array.
type span struct{ lo, hi uint32 }

// plist locates one compressed posting run inside postings.enc. The
// zero plist is an absent key: a present key has n > 0.
type plist struct {
	off uint32 // byte offset of the run's first varint
	n   uint32 // number of fact IDs in the run
}

// keyed is one entry of a pairDir run: the pair's second key and its
// posting run.
type keyed struct {
	key sym.ID
	pl  plist
}

// pairDir is a CSR directory over (a, b) keys: the entries of key a
// are run[off[a]:off[a+1]], ascending by b.
type pairDir struct {
	off []uint32
	run []keyed
}

// get returns the run of (a, b), or the zero plist when it is absent.
func (d *pairDir) get(a, b sym.ID) plist {
	if int(a)+1 >= len(d.off) {
		return plist{}
	}
	run := d.run[d.off[a]:d.off[a+1]]
	if i := search(run, func(e keyed) bool { return e.key >= b }); i < len(run) && run[i].key == b {
		return run[i].pl
	}
	return plist{}
}

// postings is the immutable base layer of a Store. Clones share it by
// pointer.
type postings struct {
	facts []fact.Fact // sorted by (S, R, T); fact ID = index

	sOff []uint32 // S's facts are facts[sOff[S]:sOff[S+1]]

	byR, byT   []plist // indexed by ID
	byRT, byST pairDir

	enc []byte // delta+varint encoded fact-ID runs

	spanKeys, runKeys int // distinct S and (S, R); runs in enc
}

// emptyBase is the base of every store that has not folded yet. Its
// directories are empty: every lookup is out of range and misses, and
// nothing ever writes to a base.
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
// so every run is encoded straight from a subslice and its directory
// entry written in key order. Transient memory is two ID permutations
// plus one counter per entity ID, whatever the skew; each directory
// is sized by the largest ID of its own column.
func buildPostings(fs []fact.Fact) *postings {
	// Each fact is in four runs, mostly at one or two bytes each (the
	// campus worlds average 6 bytes per fact).
	p := &postings{facts: fs, enc: make([]byte, 0, 8*len(fs))}
	var topS, topR, topT sym.ID
	for _, f := range fs {
		topS, topR, topT = max(topS, f.S), max(topR, f.R), max(topT, f.T)
	}
	p.spans(topS)
	e := idSorter{fs: fs, counts: make([]uint32, int(max(topS, topR, topT))+2)}
	byR, byT := make([]uint32, len(fs)), make([]uint32, len(fs))
	e.sort(byR, nil, colR)
	p.byR = encodeByID(p, byR, colR, topR)
	e.sort(byT, nil, colT)
	p.byT = encodeByID(p, byT, colT, topT)
	e.sort(byR, byT, colR) // now by (R, T)
	p.byRT = encodeByPair(p, byR, colR, topR)
	e.sort(byR, byT, colS) // now by (S, T)
	p.byST = encodeByPair(p, byR, colS, topS)
	return p
}

// spans fills sOff: facts sorted by (S, R, T) means every S run is a
// single range of the array, so the offsets are one walk. It also
// counts the distinct S and (S, R) keys for IndexStats.
func (p *postings) spans(topS sym.ID) {
	fs := p.facts
	off := make([]uint32, int(topS)+2)
	next := 0 // the first ID whose offset is not yet set
	for i, f := range fs {
		if i > 0 && f.S == fs[i-1].S {
			if f.R != fs[i-1].R {
				p.spanKeys++
			}
			continue
		}
		p.spanKeys += 2
		for ; next <= int(f.S); next++ {
			off[next] = uint32(i)
		}
	}
	for ; next < len(off); next++ {
		off[next] = uint32(len(fs))
	}
	p.sOff = off
}

// sSpan is the range of S's facts; empty for an absent or
// out-of-range S.
func (p *postings) sSpan(s sym.ID) span {
	if int(s)+1 >= len(p.sOff) {
		return span{}
	}
	return span{p.sOff[s], p.sOff[s+1]}
}

// srSpan is the range of (S, R)'s facts: two binary searches on R
// inside S's span.
func (p *postings) srSpan(s, r sym.ID) span {
	sp := p.sSpan(s)
	run := p.facts[sp.lo:sp.hi]
	lo := search(run, func(f fact.Fact) bool { return f.R >= r })
	hi := lo + search(run[lo:], func(f fact.Fact) bool { return f.R > r })
	return span{sp.lo + uint32(lo), sp.lo + uint32(hi)}
}

// search is sort.Search over a run: the first index at which ge
// holds, for a ge that is false then true along the run.
func search[E any](run []E, ge func(E) bool) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !ge(run[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// idRun is the run of key id in a []plist directory; the zero plist
// for an absent or out-of-range key.
func idRun(dir []plist, id sym.ID) plist {
	if int(id) >= len(dir) {
		return plist{}
	}
	return dir[id]
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

// sort writes the fact IDs into dst, stably sorted by column c: from
// fact order when src is nil, else from the order of src, which holds
// every fact ID. The key counts do not depend on that order, so they
// come from one sequential scan of the facts either way.
func (e *idSorter) sort(dst, src []uint32, c column) {
	cnt, fs := e.counts, e.fs
	clear(cnt)
	for _, f := range fs {
		cnt[c.of(f)+1]++
	}
	for k := 1; k < len(cnt); k++ {
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
}

// encodeByID encodes the runs of ids, grouped by column c, into p.enc
// in key order, and returns their directory over [0, top].
func encodeByID(p *postings, ids []uint32, c column, top sym.ID) []plist {
	out := make([]plist, int(top)+1)
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
// (a, T), with a's largest ID top. The pair count is not known from
// the sort, so a first walk counts the groups to size the run
// exactly; the second encodes them and fills the offsets of every a
// up to the current one as it passes.
func encodeByPair(p *postings, ids []uint32, a column, top sym.ID) pairDir {
	fs := p.facts
	keys := 0
	for i := range ids {
		if i == 0 || fs[ids[i]].T != fs[ids[i-1]].T || a.of(fs[ids[i]]) != a.of(fs[ids[i-1]]) {
			keys++
		}
	}
	d := pairDir{off: make([]uint32, int(top)+2), run: make([]keyed, 0, keys)}
	next := 0 // the first a whose offset is not yet set
	for i := 0; i < len(ids); {
		ka, kt := a.of(fs[ids[i]]), fs[ids[i]].T
		j := i + 1
		for j < len(ids) && fs[ids[j]].T == kt && a.of(fs[ids[j]]) == ka {
			j++
		}
		for ; next <= int(ka); next++ {
			d.off[next] = uint32(len(d.run))
		}
		d.run = append(d.run, keyed{kt, p.appendRun(ids[i:j])})
		i = j
	}
	for ; next < len(d.off); next++ {
		d.off[next] = uint32(len(d.run))
	}
	return d
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
	p.runKeys++
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

// has answers a fully bound probe: one binary search on (R, T)
// inside S's span (ascending there by the sort order).
func (p *postings) has(f fact.Fact) bool {
	sp := p.sSpan(f.S)
	run := p.facts[sp.lo:sp.hi]
	i := search(run, func(g fact.Fact) bool { return g.R > f.R || g.R == f.R && g.T >= f.T })
	return i < len(run) && run[i].R == f.R && run[i].T == f.T
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
		return p.eachSpan(p.srSpan(src, rel), fn)
	case rel != sym.None && tgt != sym.None:
		return p.eachFact(p.byRT.get(rel, tgt), fn)
	case src != sym.None && tgt != sym.None:
		return p.eachFact(p.byST.get(src, tgt), fn)
	case src != sym.None:
		return p.eachSpan(p.sSpan(src), fn)
	case rel != sym.None:
		return p.eachFact(idRun(p.byR, rel), fn)
	case tgt != sym.None:
		return p.eachFact(idRun(p.byT, tgt), fn)
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

// estimate is the exact number of base facts matching the pattern.
// A pattern with S bound alone, R alone or T alone is answered in
// O(1) by indexing a directory; (S, R), (R, T), (S, T) and the fully
// bound pattern by a binary search, O(log run).
func (p *postings) estimate(src, rel, tgt sym.ID) int {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if p.has(fact.Fact{S: src, R: rel, T: tgt}) {
			return 1
		}
		return 0
	case src != sym.None && rel != sym.None:
		sp := p.srSpan(src, rel)
		return int(sp.hi - sp.lo)
	case rel != sym.None && tgt != sym.None:
		return int(p.byRT.get(rel, tgt).n)
	case src != sym.None && tgt != sym.None:
		return int(p.byST.get(src, tgt).n)
	case src != sym.None:
		sp := p.sSpan(src)
		return int(sp.hi - sp.lo)
	case rel != sym.None:
		return int(idRun(p.byR, rel).n)
	case tgt != sym.None:
		return int(idRun(p.byT, tgt).n)
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
		return p.clipSpan(p.srSpan(src, rel))
	case rel != sym.None && tgt != sym.None:
		return p.materialize(p.byRT.get(rel, tgt))
	case src != sym.None && tgt != sym.None:
		return p.materialize(p.byST.get(src, tgt))
	case src != sym.None:
		return p.clipSpan(p.sSpan(src))
	case rel != sym.None:
		return p.materialize(idRun(p.byR, rel))
	case tgt != sym.None:
		return p.materialize(idRun(p.byT, tgt))
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
	DirectoryBytes int // bytes of the directories that locate spans and runs
	Delta          int // facts added on top of the base
	Tombstones     int // base facts deleted
}

// Buckets returns the total index bucket count across both forms.
func (st IndexStats) Buckets() int { return st.SpanBuckets + st.PostingBuckets }

// IndexBytes is the base's deterministic footprint: the fact array
// (12 bytes per fact), the posting arena and the directories, each
// slice at its element size. The hash-indexed layers are not
// included; Delta and Tombstones size them.
func (st IndexStats) IndexBytes() int {
	return st.Facts*12 + st.PostingBytes + st.DirectoryBytes
}

// directoryBytes sums the directory slices at their element sizes:
// 4 bytes per offset, 8 per plist, 12 per (key, plist) entry.
func (p *postings) directoryBytes() int {
	return 4*(len(p.sOff)+len(p.byRT.off)+len(p.byST.off)) +
		8*(len(p.byR)+len(p.byT)) + 12*(len(p.byRT.run)+len(p.byST.run))
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
		SpanBuckets:    p.spanKeys,
		PostingBuckets: p.runKeys,
		PostingBytes:   len(p.enc),
		DirectoryBytes: p.directoryBytes(),
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
