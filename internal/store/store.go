// Package store implements the physical layer of a loosely structured
// database: an indexed heap of facts.
//
// The paper (§2.6) defines a database as "a set of facts" with no
// further physical organization, and defers storage strategy to the
// implementation. This store keeps each fact exactly once and answers
// any template — any combination of bound and free positions — from
// the most selective of six indexes (S, R, T, SR, RT, ST). Durability
// is provided by an append-only operation log plus snapshots (see
// persist.go).
//
// A Store is three layers read as one set: an immutable compressed
// posting-list base (postings.go) that clones share by pointer, a
// hash-indexed delta of facts added on top of it, and a hash-indexed
// tombstone set of base facts deleted from it. Every read merges the
// three (live = base − tombstones + delta), so Clone copies only the
// delta and tombstones, and Insert/Delete touch only them. A store
// that was never sealed is simply one with an empty base.
//
// A sealed store can also be built in bulk, with no hash layer at
// all: SealedFromFacts sorts a fact set once into a base, and
// SealedWith folds a sorted batch of new facts into a copy of one by a
// linear merge. The rules engine builds a full closure this way, one
// sealed generation per semi-naive round, and publishes the last.
//
// A Store is safe for concurrent use: reads take a shared lock,
// mutations an exclusive one. A store can additionally be Sealed,
// which freezes its fact set permanently: sealed reads skip lock
// acquisition entirely and mutations panic. Seal folds the layers
// into a fresh base only once delta and tombstones have outgrown a
// fixed fraction of it (foldFraction). The rules engine seals every
// closure store before publishing it, so the warm browsing path reads
// materialized facts with zero synchronization, and maintaining a
// closure across a write costs O(delta), not O(closure).
package store

import (
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
	"repro/internal/sym"
)

type pair struct{ a, b sym.ID }

// Store is an indexed collection of facts over a shared Universe.
type Store struct {
	mu sync.RWMutex
	u  *fact.Universe

	// sealed freezes the store: reads go lock-free, mutations panic.
	// Seal must happen-before the store is shared with other
	// goroutines (the engine publishes sealed closures through an
	// atomic pointer, which provides that edge).
	sealed bool

	// The live fact set is base − dead + add. base is immutable and
	// shared by pointer between a store and its clones (never nil: an
	// unsealed-from-birth store points at emptyBase). add holds facts
	// absent from base, dead holds base facts deleted since; the two
	// are disjoint from each other by construction.
	base *postings
	add  layer
	dead layer

	version atomic.Uint64 // incremented on every successful mutation

	// recent is a bounded history of mutations used by incremental
	// consumers (the rules engine's delta closure maintenance).
	// recentBase is the version *before* recent[0] was applied.
	recent     []Change
	recentBase uint64

	log  *Log // optional durability log; nil when in-memory only
	fsys FS   // filesystem for durability files; nil means OSFS

	// Auto-checkpoint configuration (SetAutoCheckpoint): compact the
	// log once it holds more than checkpointEvery records and at least
	// twice the live fact count, optionally writing a snapshot to
	// checkpointSnap first. checkpointing coalesces concurrent
	// checkpoint triggers. compactGate, when set, can veto a
	// checkpoint's compaction (SetCompactGate) — the replication
	// primary uses it to keep records followers still need.
	checkpointEvery int
	checkpointSnap  string
	checkpointing   atomic.Bool
	compactGate     func(upto uint64) bool

	// m holds observability handles (SetMetrics). The zero value is
	// all nil-safe no-ops; SetMetrics must run before the store is
	// shared across goroutines.
	m storeMetrics
}

// Change records one mutation for ChangesSince.
type Change struct {
	Deleted bool
	Fact    fact.Fact
}

// maxRecent bounds the mutation history; consumers that fall behind
// more than this must recompute from scratch.
const maxRecent = 8192

// foldFraction is the fold rule: Seal rebuilds the base once delta
// plus tombstones reach 1/foldFraction of it. A fold costs O(base)
// (≈0.25 µs per base fact to merge and re-encode the postings on a
// 131k-fact closure), so folding every base/foldFraction changed
// facts amortizes to foldFraction × 0.25 µs ≈ 4 µs per changed fact —
// the same order as deriving that fact in the first place, so folding
// never dominates maintenance. Between folds a changed fact sits in seven hash
// buckets (~300 B against the base's ~33 B per fact), so 1/16 caps
// the layers' memory at ~19 B per base fact, half of the base's
// again. Smaller fractions fold more for no read-side gain (reads pay
// one hash probe per layer whatever its size); larger ones give the
// memory back. It is a constant, not a knob: neither side of the
// trade depends on the workload, only on the two representations'
// per-fact costs.
const foldFraction = 16

// foldDen is foldFraction, except in tests that force every Seal to
// fold (export_test.go).
var foldDen = foldFraction

// layer is a hash-indexed fact set: the fact map plus six bucket
// indexes. The zero value is an empty, read-only layer (a sealed
// store's layers after a fold); newLayer and clone return writable
// ones.
type layer struct {
	facts            map[fact.Fact]struct{}
	byS, byR, byT    map[sym.ID][]fact.Fact
	bySR, byRT, byST map[pair][]fact.Fact
}

func newLayer() layer {
	return layer{
		facts: make(map[fact.Fact]struct{}),
		byS:   make(map[sym.ID][]fact.Fact),
		byR:   make(map[sym.ID][]fact.Fact),
		byT:   make(map[sym.ID][]fact.Fact),
		bySR:  make(map[pair][]fact.Fact),
		byRT:  make(map[pair][]fact.Fact),
		byST:  make(map[pair][]fact.Fact),
	}
}

// clone copies the layer; bucket slices are cloned so later appends
// cannot alias.
func (l *layer) clone() layer {
	facts := make(map[fact.Fact]struct{}, len(l.facts))
	maps.Copy(facts, l.facts)
	return layer{
		facts: facts,
		byS:   cloneIndex(l.byS),
		byR:   cloneIndex(l.byR),
		byT:   cloneIndex(l.byT),
		bySR:  cloneIndex(l.bySR),
		byRT:  cloneIndex(l.byRT),
		byST:  cloneIndex(l.byST),
	}
}

func cloneIndex[K comparable](m map[K][]fact.Fact) map[K][]fact.Fact {
	out := make(map[K][]fact.Fact, len(m))
	for k, bucket := range m {
		out[k] = slices.Clone(bucket)
	}
	return out
}

func (l *layer) has(f fact.Fact) bool {
	_, ok := l.facts[f]
	return ok
}

func (l *layer) insert(f fact.Fact) {
	l.facts[f] = struct{}{}
	l.byS[f.S] = append(l.byS[f.S], f)
	l.byR[f.R] = append(l.byR[f.R], f)
	l.byT[f.T] = append(l.byT[f.T], f)
	l.bySR[pair{f.S, f.R}] = append(l.bySR[pair{f.S, f.R}], f)
	l.byRT[pair{f.R, f.T}] = append(l.byRT[pair{f.R, f.T}], f)
	l.byST[pair{f.S, f.T}] = append(l.byST[pair{f.S, f.T}], f)
}

func (l *layer) remove(f fact.Fact) {
	delete(l.facts, f)
	removeFrom(l.byS, f.S, f)
	removeFrom(l.byR, f.R, f)
	removeFrom(l.byT, f.T, f)
	removeFrom(l.bySR, pair{f.S, f.R}, f)
	removeFrom(l.byRT, pair{f.R, f.T}, f)
	removeFrom(l.byST, pair{f.S, f.T}, f)
}

func removeFrom[K comparable](m map[K][]fact.Fact, k K, f fact.Fact) {
	bucket := m[k]
	for i, g := range bucket {
		if g == f {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(m, k)
	} else {
		m[k] = bucket
	}
}

// bucket returns the index bucket covering a pattern with one or two
// bound positions (sym.None is the wildcard).
func (l *layer) bucket(src, rel, tgt sym.ID) []fact.Fact {
	switch {
	case src != sym.None && rel != sym.None:
		return l.bySR[pair{src, rel}]
	case rel != sym.None && tgt != sym.None:
		return l.byRT[pair{rel, tgt}]
	case src != sym.None && tgt != sym.None:
		return l.byST[pair{src, tgt}]
	case src != sym.None:
		return l.byS[src]
	case rel != sym.None:
		return l.byR[rel]
	default:
		return l.byT[tgt]
	}
}

func (l *layer) match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if f := (fact.Fact{S: src, R: rel, T: tgt}); l.has(f) {
			return fn(f)
		}
		return true
	case src == sym.None && rel == sym.None && tgt == sym.None:
		for f := range l.facts {
			if !fn(f) {
				return false
			}
		}
		return true
	}
	for _, f := range l.bucket(src, rel, tgt) {
		if !fn(f) {
			return false
		}
	}
	return true
}

// estimate is the exact number of the layer's facts matching the
// pattern, in O(1).
func (l *layer) estimate(src, rel, tgt sym.ID) int {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if l.has(fact.Fact{S: src, R: rel, T: tgt}) {
			return 1
		}
		return 0
	case src == sym.None && rel == sym.None && tgt == sym.None:
		return len(l.facts)
	}
	return len(l.bucket(src, rel, tgt))
}

// New returns an empty in-memory store over universe u.
func New(u *fact.Universe) *Store {
	return &Store{u: u, base: emptyBase, add: newLayer(), dead: newLayer()}
}

// Universe returns the entity universe the store interns against.
func (s *Store) Universe() *fact.Universe { return s.u }

// Seal permanently freezes the store. After Seal, all read methods
// skip lock acquisition and any mutation panics. If delta and
// tombstones have reached 1/foldFraction of the base (always, for a
// store that has no base yet), Seal first folds all three layers into
// a fresh compressed base — the frozen form then holds each fact once
// plus a few posting bytes per bucket; otherwise the layers are
// frozen as they are and the base stays shared with the store this
// one was cloned from. The mutation history is dropped: a sealed
// store will never change again, so ChangesSince answers only for the
// current version. Seal must be called before the store is shared
// across goroutines.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	if n := len(s.add.facts) + len(s.dead.facts); n > 0 && n*foldDen >= len(s.base.facts) {
		added := make([]fact.Fact, 0, len(s.add.facts))
		for f := range s.add.facts {
			added = append(added, f)
		}
		slices.SortFunc(added, fact.Compare)
		s.base = buildPostings(mergeLive(s.base.facts, s.dead.facts, added))
		s.add, s.dead = layer{}, layer{}
	}
	s.sealed = true
	s.recent = nil
	s.recentBase = s.version.Load()
}

// Sealed reports whether the store has been frozen by Seal.
func (s *Store) Sealed() bool { return s.sealed }

// Len returns the number of stored facts.
func (s *Store) Len() int {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.lenLocked()
}

func (s *Store) lenLocked() int {
	return len(s.base.facts) + len(s.add.facts) - len(s.dead.facts)
}

// Version returns a counter incremented by every successful mutation.
// Callers use it to invalidate caches derived from the fact set.
func (s *Store) Version() uint64 { return s.version.Load() }

// Has reports whether f is stored (explicitly; inference is layered above).
func (s *Store) Has(f fact.Fact) bool {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.hasLocked(f)
}

// hasLocked, matchLocked and estimateLocked are the three merged
// reads everything else is built from. Each skips a layer that is
// empty without calling into it, so a store with only a delta (never
// sealed) and one with only a base (freshly folded) both read at the
// speed of their single layer.
func (s *Store) hasLocked(f fact.Fact) bool {
	if len(s.add.facts) != 0 && s.add.has(f) {
		return true
	}
	return len(s.base.facts) != 0 && s.base.has(f) && (len(s.dead.facts) == 0 || !s.dead.has(f))
}

// Insert adds f. It returns false if f was already present. When a
// log is attached, Insert blocks until the sync policy's durability
// point; durability failures are sticky on the log and surface
// through InsertLogged, SyncLog and LogStats.
func (s *Store) Insert(f fact.Fact) bool {
	ok, _ := s.InsertLogged(f)
	return ok
}

// InsertLogged is Insert with the durability outcome: ok reports
// whether f was newly added, err any log commit failure (always nil
// without an attached log). A non-nil err means the fact is present
// in memory but not guaranteed on disk; once the log has failed, no
// subsequent commit reports success.
func (s *Store) InsertLogged(f fact.Fact) (bool, error) {
	l, lsn, due, changed := s.applyLocked(f, opInsert)
	if changed {
		s.m.commits.Inc()
		s.m.inserts.Inc()
	}
	if !changed || l == nil {
		return changed, nil
	}
	err := s.finishCommit(l, lsn)
	if due && err == nil {
		err = s.Checkpoint()
	}
	return true, err
}

// finishCommit waits for the record's durability point, timing the
// wait when a commit-latency histogram is wired. time.Now is gated on
// the handle so pure in-memory stores never pay for the clock reads.
func (s *Store) finishCommit(l *Log, lsn uint64) error {
	if s.m.commitNs == nil {
		return l.commit(lsn)
	}
	t0 := time.Now()
	err := l.commit(lsn)
	s.m.commitNs.Observe(time.Since(t0).Nanoseconds())
	return err
}

// Delete removes f. It returns false if f was not present. Durability
// semantics match Insert.
func (s *Store) Delete(f fact.Fact) bool {
	ok, _ := s.DeleteLogged(f)
	return ok
}

// DeleteLogged is Delete with the durability outcome (see InsertLogged).
func (s *Store) DeleteLogged(f fact.Fact) (bool, error) {
	l, lsn, due, changed := s.applyLocked(f, opDelete)
	if changed {
		s.m.commits.Inc()
		s.m.deletes.Inc()
	}
	if !changed || l == nil {
		return changed, nil
	}
	err := s.finishCommit(l, lsn)
	if due && err == nil {
		err = s.Checkpoint()
	}
	return true, err
}

// applyLocked performs the in-memory mutation and the log append
// under the store lock, returning everything the caller needs to
// finish the commit after releasing it: the log (nil when detached),
// the record's sequence number, and whether a checkpoint is due.
func (s *Store) applyLocked(f fact.Fact, op byte) (l *Log, lsn uint64, due, changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	present := s.hasLocked(f)
	if op == opInsert {
		if present {
			return nil, 0, false, false
		}
		s.insertLocked(f)
	} else {
		if !present {
			return nil, 0, false, false
		}
		s.deleteLocked(f)
	}
	if s.log == nil {
		return nil, 0, false, true
	}
	var n int
	lsn, n = s.log.append(op, s.u, f)
	// A checkpoint is due when the log is past the threshold AND a
	// compaction would at least halve it; a compacted log holds
	// exactly the live facts, so without the second condition a store
	// whose live set alone exceeds the threshold would rewrite the
	// whole log on every commit.
	due = s.checkpointEvery > 0 && n > s.checkpointEvery && n >= 2*s.lenLocked()
	return s.log, lsn, due, true
}

func (s *Store) mustMutable() {
	if s.sealed {
		panic("store: mutation of sealed store")
	}
}

// insertLocked adds f, which the caller has checked is not live: a
// tombstoned base fact is resurrected by dropping its tombstone,
// anything else joins the delta.
func (s *Store) insertLocked(f fact.Fact) {
	if len(s.dead.facts) != 0 && s.dead.has(f) {
		s.dead.remove(f)
	} else {
		s.add.insert(f)
	}
	s.version.Add(1)
	s.record(Change{Fact: f})
}

// deleteLocked removes f, which the caller has checked is live: a
// delta fact is dropped, a base fact gets a tombstone.
func (s *Store) deleteLocked(f fact.Fact) {
	if s.add.has(f) {
		s.add.remove(f)
	} else {
		s.dead.insert(f)
	}
	s.version.Add(1)
	s.record(Change{Deleted: true, Fact: f})
}

// record appends a mutation to the bounded history.
func (s *Store) record(c Change) {
	if len(s.recent) >= maxRecent {
		drop := len(s.recent) / 2
		s.recent = append(s.recent[:0], s.recent[drop:]...)
		s.recentBase += uint64(drop)
	}
	s.recent = append(s.recent, c)
}

// ChangesSince returns the mutations applied after version v, in
// order, and whether the history still covers that point. A false
// result means the caller must resynchronize from scratch. A caller
// already at the current version gets (nil, true) without allocating.
func (s *Store) ChangesSince(v uint64) ([]Change, bool) {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	if v < s.recentBase {
		return nil, false
	}
	idx := v - s.recentBase
	if idx > uint64(len(s.recent)) {
		return nil, false
	}
	if idx == uint64(len(s.recent)) {
		return nil, true
	}
	out := make([]Change, len(s.recent)-int(idx))
	copy(out, s.recent[idx:])
	return out, true
}

// Match calls fn for every stored fact matching the pattern, where a
// sym.None position is a wildcard. Iteration stops if fn returns
// false; Match reports whether iteration ran to completion. fn must
// not mutate the store.
func (s *Store) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.matchLocked(src, rel, tgt, fn)
}

// matchLocked streams the base's matches, minus tombstones, then the
// delta's. The tombstone filter is only interposed when the pattern's
// tombstone bucket is non-empty, so reads away from recent deletes
// run the base iteration bare.
func (s *Store) matchLocked(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	if len(s.base.facts) != 0 {
		live := fn
		if len(s.dead.facts) != 0 && s.dead.estimate(src, rel, tgt) > 0 {
			live = func(f fact.Fact) bool { return s.dead.has(f) || fn(f) }
		}
		if !s.base.match(src, rel, tgt, live) {
			return false
		}
	}
	return len(s.add.facts) == 0 || s.add.match(src, rel, tgt, fn)
}

// Count returns the number of stored facts matching the pattern
// (sym.None positions are wildcards) without allocating results.
func (s *Store) Count(src, rel, tgt sym.ID) int {
	n := 0
	s.Match(src, rel, tgt, func(fact.Fact) bool { n++; return true })
	return n
}

// EstimateCount returns the exact number of facts matching the
// pattern without enumerating them: the size of the most selective
// index bucket covering it, summed over the layers (base + delta −
// tombstones). Each layer answers with one directory entry or hash
// probe, or with a binary search when the base is asked for a pair
// of positions (postings.estimate).
// For fully bound patterns it returns 0 or 1; for the all-wildcard
// pattern, the store size. Query planners use it to order joins by
// selectivity.
func (s *Store) EstimateCount(src, rel, tgt sym.ID) int {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.estimateLocked(src, rel, tgt)
}

func (s *Store) estimateLocked(src, rel, tgt sym.ID) int {
	n := 0
	if len(s.base.facts) != 0 {
		n = s.base.estimate(src, rel, tgt)
		if len(s.dead.facts) != 0 {
			n -= s.dead.estimate(src, rel, tgt)
		}
	}
	if len(s.add.facts) != 0 {
		n += s.add.estimate(src, rel, tgt)
	}
	return n
}

// MatchAll collects the facts matching the pattern into a slice. A
// pattern no delta fact or tombstone touches is answered by the base
// alone: span-backed patterns (S, SR, all-wildcard) then return a
// capacity-clipped subslice of the sorted fact array without copying.
// Every other result is an exact-size slice (len == cap); either way
// an append by the caller reallocates instead of clobbering the
// index. Treat results as read-only.
func (s *Store) MatchAll(src, rel, tgt sym.ID) []fact.Fact {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	if (len(s.add.facts) == 0 || s.add.estimate(src, rel, tgt) == 0) &&
		(len(s.dead.facts) == 0 || s.dead.estimate(src, rel, tgt) == 0) {
		return s.base.matchAll(src, rel, tgt)
	}
	n := s.estimateLocked(src, rel, tgt)
	if n == 0 {
		return nil
	}
	out := make([]fact.Fact, 0, n)
	s.matchLocked(src, rel, tgt, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// Facts returns a copy of all stored facts in unspecified order.
func (s *Store) Facts() []fact.Fact {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.factsLocked()
}

func (s *Store) factsLocked() []fact.Fact {
	out := make([]fact.Fact, 0, s.lenLocked())
	s.matchLocked(sym.None, sym.None, sym.None, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// eachLocked calls fn for every stored fact until it returns an error,
// which eachLocked returns. The caller holds the store lock (or the
// store is sealed).
func (s *Store) eachLocked(fn func(fact.Fact) error) error {
	var err error
	s.matchLocked(sym.None, sym.None, sym.None, func(f fact.Fact) bool {
		err = fn(f)
		return err == nil
	})
	return err
}

// Entities returns the set of entities that occur in at least one
// stored fact, in any position, in ascending ID order. This is the
// active domain used for ∀-quantifier evaluation (§2.7) and retraction
// (§5). One scan of the live facts marks a dense bitset over the IDs,
// which is read out in order.
func (s *Store) Entities() []sym.ID {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var seen idSet
	s.matchLocked(sym.None, sym.None, sym.None, func(f fact.Fact) bool {
		seen.add(f.S)
		seen.add(f.R)
		seen.add(f.T)
		return true
	})
	return seen.ids()
}

// idSet is a dense bitset over entity IDs that grows to the largest
// ID added.
type idSet []uint64

func (b *idSet) add(id sym.ID) {
	w := int(id >> 6)
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (id & 63)
}

// ids returns the members in ascending order, in an exact-size slice.
func (b idSet) ids() []sym.ID {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	out := make([]sym.ID, 0, n)
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			out = append(out, sym.ID(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return out
}

// HasEntity reports whether id occurs in any stored fact.
func (s *Store) HasEntity(id sym.ID) bool {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.estimateLocked(id, sym.None, sym.None) > 0 ||
		s.estimateLocked(sym.None, id, sym.None) > 0 ||
		s.estimateLocked(sym.None, sym.None, id) > 0
}

// Relationships returns the distinct relationship entities in use,
// with the number of facts carrying each, sorted by descending count.
func (s *Store) Relationships() []RelStat {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var out []RelStat
	collect := func(r sym.ID) {
		if n := s.estimateLocked(sym.None, r, sym.None); n > 0 {
			out = append(out, RelStat{Rel: r, Count: n})
		}
	}
	for r, pl := range s.base.byR {
		if pl.n != 0 {
			collect(sym.ID(r))
		}
	}
	for r := range s.add.byR {
		if idRun(s.base.byR, r).n == 0 {
			collect(r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Rel < out[j].Rel
	})
	return out
}

// RelStat pairs a relationship entity with its fact count.
type RelStat struct {
	Rel   sym.ID
	Count int
}

// Degree returns the number of facts in which id occurs as source or
// target (its neighborhood size; used by navigation benchmarks).
func (s *Store) Degree(id sym.ID) int {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.estimateLocked(id, sym.None, sym.None) + s.estimateLocked(sym.None, sym.None, id)
}

// Clone returns a copy of the store sharing the same Universe and, by
// pointer, the same immutable base: only the delta and tombstone
// layers are copied, so cloning a sealed closure costs O(delta), not
// O(closure). The clone is unsealed and mutable even when the
// receiver is sealed, carries no durability log, and starts with an
// *empty* mutation history: its version equals the fact count (as if
// each fact had been inserted fresh) and ChangesSince answers only
// from that point forward.
func (s *Store) Clone() *Store {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	c := &Store{u: s.u, base: s.base, add: s.add.clone(), dead: s.dead.clone()}
	c.version.Store(uint64(c.lenLocked()))
	c.recentBase = c.version.Load()
	return c
}

// InsertAll inserts every fact, returning the number newly added.
func (s *Store) InsertAll(facts []fact.Fact) int {
	n := 0
	for _, f := range facts {
		if s.Insert(f) {
			n++
		}
	}
	return n
}
