// Package store implements the physical layer of a loosely structured
// database: an indexed heap of facts.
//
// The paper (§2.6) defines a database as "a set of facts" with no
// further physical organization, and defers storage strategy to the
// implementation. This store keeps each fact exactly once and
// maintains six hash indexes (S, R, T, SR, RT, ST) so that any
// template — any combination of bound and free positions — is answered
// from the most selective index available. Durability is provided by
// an append-only operation log plus snapshots (see persist.go).
//
// A Store is safe for concurrent use: reads take a shared lock,
// mutations an exclusive one. A store can additionally be Sealed,
// which freezes its fact set permanently: sealed reads skip lock
// acquisition entirely and mutations panic. Sealing also swaps the
// hash indexes for a compressed posting-list index (postings.go) —
// one sorted fact array plus span/varint-run buckets — so a sealed
// store holds each fact once instead of seven times. The rules engine
// seals every closure store before publishing it, so the warm browsing
// path reads materialized facts with zero synchronization.
package store

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/sym"
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

	// idx is the compressed posting-list index, built by Seal (or
	// SealedFromFacts). While it is set, the hash maps below are nil:
	// sealed reads are answered from idx alone.
	idx *postings

	facts map[fact.Fact]struct{}
	byS   map[sym.ID][]fact.Fact
	byR   map[sym.ID][]fact.Fact
	byT   map[sym.ID][]fact.Fact
	bySR  map[pair][]fact.Fact
	byRT  map[pair][]fact.Fact
	byST  map[pair][]fact.Fact

	version atomic.Uint64 // incremented on every successful mutation

	// recent is a bounded history of mutations used by incremental
	// consumers (the rules engine's delta closure maintenance).
	// recentBase is the version *before* recent[0] was applied.
	recent     []Change
	recentBase uint64

	log  *Log // optional durability log; nil when in-memory only
	fsys FS   // filesystem for durability files; nil means OSFS

	// Auto-checkpoint configuration (SetAutoCheckpoint): compact the
	// log once it holds more than checkpointEvery records, optionally
	// writing a snapshot to checkpointSnap first. checkpointing
	// coalesces concurrent checkpoint triggers. compactGate, when set,
	// can veto a checkpoint's compaction (SetCompactGate) — the
	// replication primary uses it to keep records followers still need.
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

// New returns an empty in-memory store over universe u.
func New(u *fact.Universe) *Store {
	return &Store{
		u:     u,
		facts: make(map[fact.Fact]struct{}),
		byS:   make(map[sym.ID][]fact.Fact),
		byR:   make(map[sym.ID][]fact.Fact),
		byT:   make(map[sym.ID][]fact.Fact),
		bySR:  make(map[pair][]fact.Fact),
		byRT:  make(map[pair][]fact.Fact),
		byST:  make(map[pair][]fact.Fact),
	}
}

// Universe returns the entity universe the store interns against.
func (s *Store) Universe() *fact.Universe { return s.u }

// Seal permanently freezes the store. After Seal, all read methods
// skip lock acquisition and any mutation panics. Sealing rebuilds the
// read path as a compressed posting-list index and drops the fact set
// map and all six hash indexes — the frozen form holds each fact once
// plus a few posting bytes per bucket. The mutation history is
// dropped: a sealed store will never change again, so ChangesSince
// answers only for the current version. Seal must be called before
// the store is shared across goroutines.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return
	}
	fs := make([]fact.Fact, 0, len(s.facts))
	for f := range s.facts {
		fs = append(fs, f)
	}
	s.idx = buildPostings(fs)
	s.facts, s.byS, s.byR, s.byT = nil, nil, nil, nil
	s.bySR, s.byRT, s.byST = nil, nil, nil
	s.sealed = true
	s.recent = nil
	s.recentBase = s.version.Load()
}

// Sealed reports whether the store has been frozen by Seal.
func (s *Store) Sealed() bool { return s.sealed }

// Len returns the number of stored facts.
func (s *Store) Len() int {
	if s.sealed {
		return len(s.idx.facts)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.facts)
}

// Version returns a counter incremented by every successful mutation.
// Callers use it to invalidate caches derived from the fact set.
func (s *Store) Version() uint64 { return s.version.Load() }

// Has reports whether f is stored (explicitly; inference is layered above).
func (s *Store) Has(f fact.Fact) bool {
	if s.sealed {
		return s.idx.has(f)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.facts[f]
	return ok
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
	_, present := s.facts[f]
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
	due = s.checkpointEvery > 0 && n > s.checkpointEvery && n >= 2*len(s.facts)
	return s.log, lsn, due, true
}

func (s *Store) mustMutable() {
	if s.sealed {
		panic("store: mutation of sealed store")
	}
}

func (s *Store) insertLocked(f fact.Fact) {
	s.addLocked(f)
	s.version.Add(1)
	s.record(Change{Fact: f})
}

// addLocked fills the fact set and all six hash indexes without
// touching the version or the mutation history. It is the shared body
// of insertLocked and the bulk rebuild paths (Clone of a sealed store).
func (s *Store) addLocked(f fact.Fact) {
	s.facts[f] = struct{}{}
	s.byS[f.S] = append(s.byS[f.S], f)
	s.byR[f.R] = append(s.byR[f.R], f)
	s.byT[f.T] = append(s.byT[f.T], f)
	s.bySR[pair{f.S, f.R}] = append(s.bySR[pair{f.S, f.R}], f)
	s.byRT[pair{f.R, f.T}] = append(s.byRT[pair{f.R, f.T}], f)
	s.byST[pair{f.S, f.T}] = append(s.byST[pair{f.S, f.T}], f)
}

func (s *Store) deleteLocked(f fact.Fact) {
	delete(s.facts, f)
	removeFact(s.byS, f.S, f)
	removeFact(s.byR, f.R, f)
	removeFact(s.byT, f.T, f)
	removePair(s.bySR, pair{f.S, f.R}, f)
	removePair(s.byRT, pair{f.R, f.T}, f)
	removePair(s.byST, pair{f.S, f.T}, f)
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

func removeFact(m map[sym.ID][]fact.Fact, k sym.ID, f fact.Fact) {
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

func removePair(m map[pair][]fact.Fact, k pair, f fact.Fact) {
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

// Match calls fn for every stored fact matching the pattern, where a
// sym.None position is a wildcard. Iteration stops if fn returns
// false; Match reports whether iteration ran to completion. fn must
// not mutate the store.
func (s *Store) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	if s.sealed {
		return s.idx.match(src, rel, tgt, fn)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		f := fact.Fact{S: src, R: rel, T: tgt}
		if _, ok := s.facts[f]; ok {
			return fn(f)
		}
		return true
	case src != sym.None && rel != sym.None:
		return each(s.bySR[pair{src, rel}], fn)
	case rel != sym.None && tgt != sym.None:
		return each(s.byRT[pair{rel, tgt}], fn)
	case src != sym.None && tgt != sym.None:
		return each(s.byST[pair{src, tgt}], fn)
	case src != sym.None:
		return each(s.byS[src], fn)
	case rel != sym.None:
		return each(s.byR[rel], fn)
	case tgt != sym.None:
		return each(s.byT[tgt], fn)
	default:
		for f := range s.facts {
			if !fn(f) {
				return false
			}
		}
		return true
	}
}

func each(bucket []fact.Fact, fn func(fact.Fact) bool) bool {
	for _, f := range bucket {
		if !fn(f) {
			return false
		}
	}
	return true
}

// Count returns the number of stored facts matching the pattern
// (sym.None positions are wildcards) without allocating results.
func (s *Store) Count(src, rel, tgt sym.ID) int {
	n := 0
	s.Match(src, rel, tgt, func(fact.Fact) bool { n++; return true })
	return n
}

// Pattern is one (src, rel, tgt) match template, with sym.None as the
// wildcard. It exists so planners can batch-estimate many candidate
// patterns in a single call (EstimateCounts).
type Pattern struct {
	S, R, T sym.ID
}

// EstimateCount returns the exact number of facts the pattern's index
// bucket holds, in O(1): the size of the most selective index bucket
// covering the pattern. For fully bound patterns it returns 0 or 1;
// for the all-wildcard pattern, the store size. Query planners use it
// to order joins by selectivity.
func (s *Store) EstimateCount(src, rel, tgt sym.ID) int {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.estimateLocked(src, rel, tgt)
}

// EstimateCounts writes the estimate for each pattern into the
// corresponding slot of out (len(out) must be at least len(patterns)),
// acquiring the read lock once for the whole batch. Join planners
// re-rank the remaining atoms at every binding step; without batching,
// that ranking costs O(atoms) lock round-trips per step on an unsealed
// store.
func (s *Store) EstimateCounts(patterns []Pattern, out []int) {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	for i, p := range patterns {
		out[i] = s.estimateLocked(p.S, p.R, p.T)
	}
}

// estimateLocked is EstimateCount's body; the caller holds the read
// lock (or the store is sealed, in which case the compressed index
// answers without locking).
func (s *Store) estimateLocked(src, rel, tgt sym.ID) int {
	if s.sealed {
		return s.idx.estimate(src, rel, tgt)
	}
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if _, ok := s.facts[fact.Fact{S: src, R: rel, T: tgt}]; ok {
			return 1
		}
		return 0
	case src != sym.None && rel != sym.None:
		return len(s.bySR[pair{src, rel}])
	case rel != sym.None && tgt != sym.None:
		return len(s.byRT[pair{rel, tgt}])
	case src != sym.None && tgt != sym.None:
		return len(s.byST[pair{src, tgt}])
	case src != sym.None:
		return len(s.byS[src])
	case rel != sym.None:
		return len(s.byR[rel])
	case tgt != sym.None:
		return len(s.byT[tgt])
	default:
		return len(s.facts)
	}
}

// MatchAll collects the facts matching the pattern into a slice. On a
// sealed store, span-backed patterns (S, SR, all-wildcard) return a
// capacity-clipped subslice of the sorted fact array without copying,
// and posting-backed patterns materialize an exact-size slice; either
// way an append by the caller reallocates instead of clobbering the
// index. Treat sealed results as read-only.
func (s *Store) MatchAll(src, rel, tgt sym.ID) []fact.Fact {
	if s.sealed {
		return s.idx.matchAll(src, rel, tgt)
	}
	var out []fact.Fact
	s.Match(src, rel, tgt, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// Facts returns a copy of all stored facts in unspecified order.
func (s *Store) Facts() []fact.Fact {
	if s.sealed {
		out := make([]fact.Fact, len(s.idx.facts))
		copy(out, s.idx.facts)
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]fact.Fact, 0, len(s.facts))
	for f := range s.facts {
		out = append(out, f)
	}
	return out
}

// Entities returns the set of entities that occur in at least one
// stored fact, in any position. This is the active domain used for
// ∀-quantifier evaluation (§2.7) and retraction (§5).
func (s *Store) Entities() []sym.ID {
	if s.sealed {
		seen := make(map[sym.ID]struct{}, len(s.idx.byS)+len(s.idx.byT))
		for _, f := range s.idx.facts {
			seen[f.S] = struct{}{}
			seen[f.R] = struct{}{}
			seen[f.T] = struct{}{}
		}
		return sortedIDs(seen)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[sym.ID]struct{}, len(s.byS)+len(s.byT))
	for f := range s.facts {
		seen[f.S] = struct{}{}
		seen[f.R] = struct{}{}
		seen[f.T] = struct{}{}
	}
	return sortedIDs(seen)
}

func sortedIDs(seen map[sym.ID]struct{}) []sym.ID {
	out := make([]sym.ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasEntity reports whether id occurs in any stored fact.
func (s *Store) HasEntity(id sym.ID) bool {
	if s.sealed {
		return s.idx.hasEntity(id)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.byS[id]; ok {
		return true
	}
	if _, ok := s.byR[id]; ok {
		return true
	}
	_, ok := s.byT[id]
	return ok
}

// Relationships returns the distinct relationship entities in use,
// with the number of facts carrying each, sorted by descending count.
func (s *Store) Relationships() []RelStat {
	if s.sealed {
		return s.idx.relationships()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RelStat, 0, len(s.byR))
	for r, bucket := range s.byR {
		out = append(out, RelStat{Rel: r, Count: len(bucket)})
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
	if s.sealed {
		return s.idx.degree(id)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byS[id]) + len(s.byT[id])
}

// Clone returns a deep copy of the store sharing the same Universe.
// The clone is unsealed and mutable even when the receiver is sealed,
// carries no durability log, and starts with an *empty* mutation
// history: its version equals the fact count (as if each fact had been
// inserted fresh) and ChangesSince answers only from that point
// forward. Cloning a mutable store duplicates the fact set and all six
// index maps directly (bucket slices are cloned so later appends
// cannot alias); cloning a sealed store rebuilds the hash indexes from
// the compressed fact array, since the frozen form has no mutable
// buckets to copy.
func (s *Store) Clone() *Store {
	if s.sealed {
		c := New(s.u)
		for _, f := range s.idx.facts {
			c.addLocked(f)
		}
		c.version.Store(uint64(len(c.facts)))
		c.recentBase = uint64(len(c.facts))
		return c
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Store{
		u:     s.u,
		facts: maps.Clone(s.facts),
		byS:   cloneIndex(s.byS),
		byR:   cloneIndex(s.byR),
		byT:   cloneIndex(s.byT),
		bySR:  cloneIndex(s.bySR),
		byRT:  cloneIndex(s.byRT),
		byST:  cloneIndex(s.byST),
	}
	c.version.Store(uint64(len(c.facts)))
	c.recentBase = uint64(len(c.facts))
	return c
}

func cloneIndex[K comparable](m map[K][]fact.Fact) map[K][]fact.Fact {
	out := make(map[K][]fact.Fact, len(m))
	for k, bucket := range m {
		out[k] = slices.Clone(bucket)
	}
	return out
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
