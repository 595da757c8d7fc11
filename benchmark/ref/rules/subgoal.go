package rules

import (
	"sync"
	"sync/atomic"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/obs"
	"repro/benchmark/ref/store"
	"repro/benchmark/ref/sym"
)

// The cross-query subgoal cache (tabling for the on-demand matcher).
//
// Every MatchBounded/HasBounded call decomposes into subgoals —
// (pattern, remaining depth) pairs — and a browsing session issues
// many overlapping queries against a slowly changing database, so the
// same subgoals recur across calls. The cache persists their result
// slices between calls in a table published through an atomic
// pointer, following the same snapshot discipline as the closure.
//
// Invalidation is dependency-tracked rather than wholesale. Each
// entry carries a 64-bit dependency summary: one bit per base-fact
// class (relation) the subgoal transitively read while being
// computed (depBits). When the base store moves, acquire folds the
// changed relations' bits into the table's accumulated mask instead
// of discarding the table; load then treats any entry whose summary
// intersects the mask as evicted. Writes to predicates a subgoal
// never consulted leave its entry — and the warm hit rate — intact.
//
//   - A table is labeled with the (ruleset version, engine epoch)
//     pair it reflects plus a monotonically advancing base version.
//     Ruleset or epoch moves still swap in a fresh table (rule
//     changes can alter the meaning of every entry); base-store moves
//     are reconciled in place via store.ChangesSince.
//
//   - Soundness of the summary: enum records a bit for every relation
//     class whose stored facts it scans, the structural classes
//     (≺, ∈, ≈, ⇌) its backward rules consult, and the membership
//     class behind Individual(); patterns with a free relation or a
//     domain-dependent virtual enumeration record allDeps. Bit
//     collisions between classes only cause over-eviction, never a
//     stale hit. The mask is OR-accumulated *before* the table's base
//     version advances, so a reader can never observe the new version
//     with an incomplete mask.
//
//   - No stale read is possible beyond the racing-writer window the
//     closure snapshot already allows: the base version is read
//     before any base facts are enumerated, and an entry computed
//     against pre-write facts either has a disjoint summary (its
//     result was unaffected) or intersects the mask and is evicted.
//     If ChangesSince cannot cover the gap (history trimmed or
//     sealed) the table is discarded wholesale, exactly as before.
//
//   - Entries are immutable once stored: enum builds a fresh slice,
//     publishes it with LoadOrStore, and every reader — including the
//     writer itself — treats the slice as read-only thereafter.

// maxSubgoalEntries is the default cap on the shared table, so a
// scan-heavy workload cannot hold the whole derivable closure in
// memory per depth; past the cap, new results stay per-call only
// until invalidation resets the table. SetSubgoalCacheLimit lowers it
// per engine — the multi-tenant daemon's per-tenant memory quota.
const maxSubgoalEntries = 1 << 18

// allDeps is the dependency summary of a subgoal that may read any
// base-fact class: patterns with a free relation position, and
// virtual enumerations over the store's active domain (which any
// write can change).
const allDeps = ^uint64(0)

// depBits maps a relation class to its dependency bit. Fibonacci
// hashing spreads interned IDs across the 64 positions; a collision
// between two classes merely widens eviction, never narrows it.
func depBits(r sym.ID) uint64 {
	if r == sym.None {
		return allDeps
	}
	return 1 << ((uint64(r) * 0x9E3779B97F4A7C15) >> 58)
}

// subgoalEntry is one cached subgoal result plus the dependency
// summary it was computed under.
type subgoalEntry struct {
	facts []fact.Fact
	deps  uint64
}

// subgoalTable is one published cache generation: entries valid for
// exactly one (cfgVer, epoch) label and for the base version the
// table has been reconciled to. limit is the entry cap the table was
// created under; a limit change takes effect at the next table swap.
type subgoalTable struct {
	cfgVer  uint64
	epoch   uint64
	limit   int64
	baseVer atomic.Uint64 // advanced by acquire after mask accumulation
	mask    atomic.Uint64 // OR of depBits for every class changed since creation
	entries sync.Map      // bkey -> subgoalEntry
	size    atomic.Int64
}

// orMask folds bits into the accumulated changed-class mask.
// (atomic.Uint64.Or needs go 1.23; this module pins 1.22.)
func (t *subgoalTable) orMask(bits uint64) {
	if bits == 0 {
		return
	}
	for {
		old := t.mask.Load()
		if old&bits == bits || t.mask.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// load returns the live entry for k. An entry whose dependency
// summary intersects the accumulated mask is logically dead: it is
// removed (counted on evicted, once, even under racing loaders) and
// reported as a miss.
func (t *subgoalTable) load(k bkey, evicted *obs.Counter) (subgoalEntry, bool) {
	v, ok := t.entries.Load(k)
	if !ok {
		return subgoalEntry{}, false
	}
	ent := v.(subgoalEntry)
	if ent.deps&t.mask.Load() != 0 {
		if _, dead := t.entries.LoadAndDelete(k); dead {
			t.size.Add(-1)
			evicted.Inc()
		}
		return subgoalEntry{}, false
	}
	return ent, true
}

func (t *subgoalTable) store(k bkey, res []fact.Fact, deps uint64) {
	if t.size.Load() >= t.limit {
		return
	}
	if _, loaded := t.entries.LoadOrStore(k, subgoalEntry{facts: res, deps: deps}); !loaded {
		t.size.Add(1)
	}
}

// subgoalCache is the engine-level handle: the current table, the
// out-of-band invalidation epoch, the kill switch, and effectiveness
// counters.
//
// The counters are obs.Counter handles (created in New, registered by
// reference in Engine.SetMetrics) rather than raw atomics, so
// CacheStats, /stats and /metrics all read the same memory — there is
// no second tally to drift out of sync, and every read path is an
// atomic load. TestCacheStatsRace pins the concurrent
// read-while-flushing pattern under -race.
type subgoalCache struct {
	table atomic.Pointer[subgoalTable]
	epoch atomic.Uint64
	off   atomic.Bool
	limit atomic.Int64 // entry cap for fresh tables; 0 means default

	hits          *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter

	// Entries evicted, by reason: "dependency" is the fine-grained
	// path (a base write touched a class the entry read); the other
	// three count entries lost to wholesale table swaps.
	evictDependency *obs.Counter // summary ∩ changed-class mask
	evictRuleset    *obs.Counter // ruleset version moved
	evictEpoch      *obs.Counter // Invalidate() epoch bump
	evictHistory    *obs.Counter // ChangesSince could not cover the gap
}

func (c *subgoalCache) freshTable(baseVer, cfgVer, ep uint64) *subgoalTable {
	lim := c.limit.Load()
	if lim <= 0 {
		lim = maxSubgoalEntries
	}
	t := &subgoalTable{cfgVer: cfgVer, epoch: ep, limit: lim}
	t.baseVer.Store(baseVer)
	return t
}

// acquire returns the shared table valid for (baseVer, cfgVer) at the
// current epoch. A ruleset or epoch mismatch publishes a fresh empty
// table; a base-version move is reconciled in place by folding the
// changed relations' dependency bits into the table's mask, keeping
// every unaffected entry live. Returns nil when the cache is
// disabled; callers then fall back to their per-call memo alone.
func (c *subgoalCache) acquire(st *store.Store, baseVer, cfgVer uint64) *subgoalTable {
	if c.off.Load() {
		return nil
	}
	ep := c.epoch.Load()
	for {
		t := c.table.Load()
		if t == nil || t.cfgVer != cfgVer || t.epoch != ep {
			fresh := c.freshTable(baseVer, cfgVer, ep)
			if c.table.CompareAndSwap(t, fresh) {
				if t != nil {
					c.invalidations.Inc()
					if n := uint64(t.size.Load()); n > 0 {
						if t.epoch != ep {
							c.evictEpoch.Add(n)
						} else {
							c.evictRuleset.Add(n)
						}
					}
				}
				return fresh
			}
			continue
		}
		tb := t.baseVer.Load()
		if tb >= baseVer {
			// The table is already reconciled at least as far as the
			// caller's view; a newer mask only over-evicts.
			return t
		}
		chs, ok := st.ChangesSince(tb)
		if !ok {
			// History trimmed past the table's label — the changed
			// classes are unknowable, so fall back to a wholesale swap.
			fresh := c.freshTable(baseVer, cfgVer, ep)
			if c.table.CompareAndSwap(t, fresh) {
				c.invalidations.Inc()
				if n := uint64(t.size.Load()); n > 0 {
					c.evictHistory.Add(n)
				}
				return fresh
			}
			continue
		}
		var bits uint64
		for _, ch := range chs {
			bits |= depBits(ch.Fact.R)
		}
		// Order matters: the mask must cover (tb, baseVer] before any
		// reader can observe the advanced base version.
		t.orMask(bits)
		t.baseVer.CompareAndSwap(tb, baseVer)
		if t.baseVer.Load() >= baseVer {
			return t
		}
		// A racing reader with an older view won the CAS; retry from
		// its version.
	}
}

// CacheStats reports subgoal cache effectiveness: hits and misses are
// shared-table lookups across all MatchBounded calls (per-call memo
// hits are not counted), invalidations counts discarded tables, and
// evictions counts individual entries dropped for any reason
// (dependency-masked, ruleset/epoch swap, or history loss).
type CacheStats struct {
	Enabled       bool
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
}

// CacheStats returns the subgoal cache counters.
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{
		Enabled:       !e.sg.off.Load(),
		Hits:          e.sg.hits.Value(),
		Misses:        e.sg.misses.Value(),
		Invalidations: e.sg.invalidations.Value(),
		Evictions: e.sg.evictDependency.Value() + e.sg.evictRuleset.Value() +
			e.sg.evictEpoch.Value() + e.sg.evictHistory.Value(),
	}
	if t := e.sg.table.Load(); t != nil {
		st.Entries = int(t.size.Load())
	}
	return st
}

// CacheDepProfile inspects the current shared subgoal table and
// returns the union of dependency bits recorded by narrow (non-
// wildcard) entries, plus the wildcard and total entry counts.
// Benchmarks and tests use it to construct a write stream that is
// provably unrelated to every narrow entry: a relationship class
// whose DepBit misses `used` can evict only the wildcard entries.
func (e *Engine) CacheDepProfile() (used uint64, wildcard, entries int) {
	t := e.sg.table.Load()
	if t == nil {
		return 0, 0, 0
	}
	t.entries.Range(func(_, v any) bool {
		entries++
		if deps := v.(subgoalEntry).deps; deps == allDeps {
			wildcard++
		} else {
			used |= deps
		}
		return true
	})
	return used, wildcard, entries
}

// DepBit returns the dependency-summary bit a write to relationship
// class r folds into the eviction mask.
func DepBit(r sym.ID) uint64 { return depBits(r) }

// SetSubgoalCache enables or disables the cross-query subgoal cache
// (enabled by default). Disabling drops the current table; bounded
// matching stays correct either way — the cache is purely a
// performance layer, and the differential harness checks the two
// modes against each other.
func (e *Engine) SetSubgoalCache(on bool) {
	e.sg.off.Store(!on)
	if !on {
		e.sg.table.Store(nil)
	}
}

// SubgoalCacheEnabled reports whether the cross-query subgoal cache is on.
func (e *Engine) SubgoalCacheEnabled() bool { return !e.sg.off.Load() }

// SetSubgoalCacheLimit caps the shared subgoal table at n entries
// (n <= 0 restores the default). The cap applies to tables published
// after the call; the current table is dropped so the new bound takes
// effect immediately. This is the per-tenant memory quota the
// multi-tenant daemon sets per database.
func (e *Engine) SetSubgoalCacheLimit(n int) {
	if n <= 0 {
		n = 0
	}
	e.sg.limit.Store(int64(n))
	e.sg.table.Store(nil)
}

// SubgoalCacheLimit returns the current entry cap of the shared
// subgoal table.
func (e *Engine) SubgoalCacheLimit() int {
	if lim := e.sg.limit.Load(); lim > 0 {
		return int(lim)
	}
	return maxSubgoalEntries
}
