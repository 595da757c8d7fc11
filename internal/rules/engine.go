package rules

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// Engine evaluates the database closure: the set of facts obtainable
// by repeated application of the active rules to the stored facts
// (§2.6), together with the virtual facts of §2.3/§3.6.
//
// The closure is materialized lazily by semi-naive forward chaining
// and published as an immutable snapshot (sealed closure store + the
// base/config versions it reflects) through an atomic pointer. The
// store is layered: a write extends the previous snapshot by a small
// delta over a base both snapshots share, so a batch of pure
// insertions (the rules are monotonic) or of deletions (delete.go)
// costs O(delta), not O(closure); rule toggling forces a
// recomputation. Cold builds run each derivation round and its dedupe
// across worker goroutines (see apply.go). How a fact was derived is
// not stored: Explain and Derive work it out on demand (explain.go).
//
// Concurrency: any number of goroutines may query concurrently, and
// queries may run concurrently with base-store mutations — warm reads
// load the published snapshot without taking the engine lock, and a
// stampede of cold readers coalesces into a single build. Mutators
// still serialize among themselves on the base store's own lock.
type Engine struct {
	base *store.Store
	vp   *virtual.Provider
	u    *fact.Universe

	// mu serializes configuration changes and snapshot builds; the
	// read path never acquires it.
	mu         sync.Mutex
	rs         atomic.Pointer[ruleset]
	cfgVersion atomic.Uint64
	workers    int // closure build parallelism; 0 = GOMAXPROCS

	// std is the standard-rule table (rules.go) over u.
	std []stdRow

	snap atomic.Pointer[snapshot]

	// sg is the cross-query subgoal cache for bounded on-demand
	// matching (ondemand.go); invalidated by version labels, never by
	// walking entries. See subgoal.go.
	sg subgoalCache

	// m holds observability handles (SetMetrics, metrics.go). The zero
	// value is all nil-safe no-ops.
	m engineMetrics

	// Axiom facts (apply.go) depend only on the universe; built once
	// and shared by every closure build and bounded subgoal.
	axiomOnce sync.Once
	axioms    []fact.Fact
}

// ruleset is an immutable snapshot of the rule configuration. Config
// mutators replace the whole value (copy-on-write), so derivation
// code can read it without holding the engine lock. ver is the
// cfgVersion this snapshot corresponds to: readers that need a
// (ruleset, version) pair — the subgoal cache keys entries by it —
// take both from the same load instead of racing two atomics.
type ruleset struct {
	ver       uint64
	std       [numStdRules]bool
	userRules []*Rule
}

// snapshot is one published closure: a sealed store labeled with the
// base and config versions it reflects. All fields except the lazily
// computed entity list and round bounds are immutable after
// publication.
type snapshot struct {
	closure *store.Store
	baseVer uint64 // base.Version() the closure reflects
	cfgVer  uint64 // cfgVersion the closure reflects

	// entities is closure.Entities(): computed on first use, or carried
	// over from the previous snapshot across an insert-only window.
	entitiesOnce sync.Once
	entities     atomic.Pointer[[]sym.ID]

	// rounds holds the round bounds explanations of this snapshot have
	// learned (explain.go), created by the first of them.
	explainMu sync.Mutex
	rounds    map[fact.Fact]bound
}

// New returns an engine over base with all standard rules enabled.
func New(base *store.Store, vp *virtual.Provider) *Engine {
	e := &Engine{base: base, vp: vp, u: base.Universe()}
	e.std = newStdTable(e.u)
	rs := &ruleset{}
	for i := range rs.std {
		rs.std[i] = true
	}
	e.rs.Store(rs)
	// The cache counters are real handles from day one (not lazily on
	// SetMetrics): CacheStats must work on unregistered engines, and
	// SetMetrics later exports these same counters by reference.
	e.sg.hits = obs.NewCounter()
	e.sg.misses = obs.NewCounter()
	e.sg.invalidations = obs.NewCounter()
	e.sg.evictDependency = obs.NewCounter()
	e.sg.evictRuleset = obs.NewCounter()
	e.sg.evictEpoch = obs.NewCounter()
	e.sg.evictHistory = obs.NewCounter()
	return e
}

// Base returns the underlying store of explicit facts.
func (e *Engine) Base() *store.Store { return e.base }

// Virtual returns the virtual-fact provider.
func (e *Engine) Virtual() *virtual.Provider { return e.vp }

// Universe returns the entity universe.
func (e *Engine) Universe() *fact.Universe { return e.u }

// SetWorkers bounds the number of goroutines a closure build may use.
// n <= 0 restores the default (GOMAXPROCS). Worker count never
// affects the computed closure, only build latency.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Include enables a standard rule (§6.1 include operator).
func (e *Engine) Include(r StdRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	if cur.std[r] {
		return
	}
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: cur.userRules}
	next.std[r] = true
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
}

// Exclude disables a standard rule (§6.1 exclude operator).
func (e *Engine) Exclude(r StdRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	if !cur.std[r] {
		return
	}
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: cur.userRules}
	next.std[r] = false
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
}

// Included reports whether a standard rule is active.
func (e *Engine) Included(r StdRule) bool {
	return e.rs.Load().std[r]
}

// AddRule registers a user rule (inference or constraint). Rule names
// are unique; adding a rule with an existing name replaces it.
func (e *Engine) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: slices.Clone(cur.userRules)}
	replaced := false
	for i, have := range next.userRules {
		if have.Name == r.Name {
			if have.Kind == r.Kind && slices.Equal(have.Body, r.Body) && slices.Equal(have.Head, r.Head) {
				// Re-adding an identical rule is a no-op: bumping the
				// config version here would needlessly discard the warm
				// subgoal cache and force a closure rebuild.
				return nil
			}
			next.userRules[i] = &r
			replaced = true
			break
		}
	}
	if !replaced {
		next.userRules = append(next.userRules, &r)
	}
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
	return nil
}

// RemoveRule unregisters the named user rule, reporting whether it existed.
func (e *Engine) RemoveRule(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	for i, have := range cur.userRules {
		if have.Name == name {
			next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: slices.Clone(cur.userRules)}
			next.userRules = append(next.userRules[:i], next.userRules[i+1:]...)
			e.rs.Store(next)
			e.cfgVersion.Store(next.ver)
			return true
		}
	}
	return false
}

// Rules returns the registered user rules sorted by name.
func (e *Engine) Rules() []Rule {
	rs := e.rs.Load()
	out := make([]Rule, 0, len(rs.userRules))
	for _, r := range rs.userRules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Individual reports whether rel belongs to R_i, the individual
// relationships to which the generalization and membership rules
// apply (§2.2). A relationship is individual unless it is one of the
// built-in structural relationships or is declared a class
// relationship by a stored fact (rel, ∈, @class).
func (e *Engine) Individual(rel sym.ID) bool {
	if e.u.Special(rel) {
		return false
	}
	return !e.base.Has(fact.Fact{S: rel, R: e.u.Member, T: e.u.RelClassOfClass})
}

// Closure returns the materialized closure store: all stored facts
// plus every fact derivable by the active rules. The returned store
// is sealed (immutable); it is cached until the base store or rule
// configuration changes.
func (e *Engine) Closure() *store.Store {
	return e.current().closure
}

// ClosureEntities returns the active domain of the closure — every
// entity occurring in a materialized fact, sorted. The list is
// computed once per snapshot and shared, so concurrent ∀-evaluation
// does not rescan the closure.
func (e *Engine) ClosureEntities() []sym.ID {
	s := e.current()
	if p := s.entities.Load(); p != nil {
		return *p
	}
	s.entitiesOnce.Do(func() {
		ents := s.closure.Entities()
		s.entities.Store(&ents)
	})
	return *s.entities.Load()
}

// current returns a snapshot consistent with the base store and rule
// configuration, building one if necessary. The warm path is a single
// atomic load plus two version checks — no locks.
func (e *Engine) current() *snapshot {
	if s := e.validSnapshot(); s != nil {
		return s
	}
	return e.rebuild()
}

// validSnapshot returns the published snapshot if it is still
// current, else nil.
func (e *Engine) validSnapshot() *snapshot {
	s := e.snap.Load()
	if s != nil && s.baseVer == e.base.Version() && s.cfgVer == e.cfgVersion.Load() {
		return s
	}
	return nil
}

// rebuild computes and publishes a fresh snapshot under the engine
// lock. Concurrent cold readers coalesce here: whoever wins the lock
// builds once, the rest re-check and reuse the published result.
func (e *Engine) rebuild() *snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.validSnapshot(); s != nil {
		return s
	}
	// Read the versions *before* reading the base facts: if a writer
	// races ahead of the build, the snapshot is labeled with an older
	// version than its contents — the next read then redoes the (pure
	// insert) delta idempotently instead of missing it.
	bv := e.base.Version()
	cv := e.cfgVersion.Load()
	cfg := e.rs.Load()

	// Incremental maintenance (delete.go): a pure-insert window extends
	// the previous closure by a semi-naive pass seeded with just the new
	// facts, and a window with deletions also repairs just the cone they
	// reach, unless it grows past the worth-it bound. Either applies to a
	// clone that shares the old snapshot's base (readers of the old
	// snapshot are never disturbed). Rule changes, a stale history and a
	// reclassifying window force a full recomputation.
	var t0 time.Time
	if e.m.rebuildNs != nil {
		t0 = time.Now()
	}
	old := e.snap.Load()
	if old != nil && old.cfgVer == cv && bv > old.baseVer {
		if chs, ok := e.base.ChangesSince(old.baseVer); ok && !e.reclassifies(chs) {
			if c, added, cone, ok := e.applyChanges(cfg, old, chs); ok {
				var ents []sym.ID
				if cone == 0 {
					ents = carryEntities(old, added)
				}
				s := e.publish(c, bv, cv, ents)
				if slices.ContainsFunc(chs, func(c store.Change) bool { return c.Deleted }) {
					e.m.rebuildsDelete.Inc()
				} else {
					e.m.rebuildsIncr.Inc()
				}
				if cone > 0 {
					e.m.deleteProps.Inc()
					e.m.deleteCone.Observe(int64(cone))
				}
				if e.m.rebuildNs != nil {
					e.m.rebuildNs.Observe(time.Since(t0).Nanoseconds())
				}
				return s
			}
		}
	}
	c, byRule, folding := e.computeClosure(cfg)
	e.m.sealed(folding, false)
	e.m.setFactsByRule(byRule)
	s := e.publish(c, bv, cv, nil)
	e.m.rebuildsFull.Inc()
	if e.m.rebuildNs != nil {
		e.m.rebuildNs.Observe(time.Since(t0).Nanoseconds())
	}
	return s
}

// publish seals c and installs it as the current snapshot. Sealing
// freezes the store's layers; only when they have outgrown the store's
// fold threshold does it also build a posting index, and that build —
// the O(closure) part of a publish — is what the seal metrics track.
// A full build arrives already sealed, its generations built and
// counted by the caller. ents, if non-nil, is the closure's entity
// list, already known.
func (e *Engine) publish(c *store.Store, bv, cv uint64, ents []sym.ID) *snapshot {
	if !c.Sealed() {
		before := c.IndexStats()
		t0 := time.Now()
		c.Seal()
		if after := c.IndexStats(); before.Delta+before.Tombstones > 0 && after.Delta+after.Tombstones == 0 {
			e.m.sealed(time.Since(t0), before.Facts > 0)
		}
	}
	s := &snapshot{closure: c, baseVer: bv, cfgVer: cv}
	if ents != nil {
		s.entities.Store(&ents)
	}
	e.snap.Store(s)
	return s
}

// carryEntities returns the entity list of a snapshot that extends old
// by the facts in added, or nil when old never computed its own: the
// old list plus the few IDs it lacks, instead of an O(closure) rescan
// on the first ∀-query after every write.
func carryEntities(old *snapshot, added []fact.Fact) []sym.ID {
	p := old.entities.Load()
	if p == nil {
		return nil
	}
	ents := *p
	var fresh []sym.ID
	for _, f := range added {
		for _, id := range [3]sym.ID{f.S, f.R, f.T} {
			if _, found := slices.BinarySearch(ents, id); !found {
				fresh = append(fresh, id)
			}
		}
	}
	if len(fresh) == 0 {
		return ents
	}
	merged := append(slices.Clone(ents), fresh...)
	slices.Sort(merged)
	return slices.Compact(merged)
}

// reclassifies reports whether a change window declares or retracts a
// class relationship (rel, ∈, @class). Individual() is a negated
// dependency, so such a window is monotone in neither direction: an
// insert can retract derived facts and a delete can add them, and only
// a full build is sound.
func (e *Engine) reclassifies(chs []store.Change) bool {
	for _, c := range chs {
		if c.Fact.R == e.u.Member && c.Fact.T == e.u.RelClassOfClass {
			return true
		}
	}
	return false
}

// Invalidate drops the cached closure and bumps the subgoal cache
// epoch. Mutations of the base store are detected automatically;
// Invalidate is only needed after out-of-band changes (e.g. a swapped
// virtual provider), which version labels cannot see — hence the
// explicit epoch.
func (e *Engine) Invalidate() {
	e.snap.Store(nil)
	e.sg.epoch.Add(1)
}

// Has reports whether f is in the database closure, including virtual
// facts and the Δ/∇ conventions (a Δ or ∇ endpoint matches any
// entity, see Match).
func (e *Engine) Has(f fact.Fact) bool {
	found := false
	e.Match(f.S, f.R, f.T, func(fact.Fact) bool {
		found = true
		return false
	})
	return found
}

// Match calls fn for every fact of the database closure matching the
// pattern, where sym.None positions are wildcards. Virtual facts are
// included. The special entities Δ and ∇ act as wildcards in any
// pattern position (every entity satisfies (E,≺,Δ) and (∇,≺,E), so a
// query position that has been generalized to Δ constrains nothing —
// this is exactly how §5.2's retraction uses Δ); matched facts retain
// Δ/∇ in that position so bindings stay faithful to the query.
// Iteration stops when fn returns false; Match reports completion.
func (e *Engine) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	// Δ/∇ positions match anything; rewrite results back.
	qs, qr, qt := e.unwild(src), e.unwild(rel), e.unwild(tgt)
	if qs == src && qr == rel && qt == tgt {
		return e.matchConcrete(src, rel, tgt, fn)
	}
	seen := getSeen()
	defer putSeen(seen)
	return e.matchConcrete(qs, qr, qt, func(f fact.Fact) bool {
		// A Δ/∇ position stands for a chain of generalization
		// inferences (§3.1), which only apply to individual
		// relationships (plus the ∈/≺ structure itself) — a
		// virtual ≠ or comparator fact is no witness for it.
		if !e.wildcardRel(f.R) {
			return true
		}
		if qs != src {
			f.S = src
		}
		if qr != rel {
			f.R = rel
		}
		if qt != tgt {
			f.T = tgt
		}
		if _, dup := seen[f]; dup {
			return true
		}
		seen[f] = struct{}{}
		return fn(f)
	})
}

// unwild maps Δ and ∇, which match anything in a pattern position, to
// the sym.None wildcard.
func (e *Engine) unwild(id sym.ID) sym.ID {
	if id == e.u.Top || id == e.u.Bottom {
		return sym.None
	}
	return id
}

// wildcardRel reports whether a fact with relationship rel can
// witness a Δ/∇-wildcard pattern position.
func (e *Engine) wildcardRel(rel sym.ID) bool {
	return e.Individual(rel) || rel == e.u.Gen || rel == e.u.Member
}

// matchConcrete matches against materialized closure plus virtual
// facts. A virtual fact the closure also holds was emitted by the
// closure pass already, so the virtual pass skips it.
func (e *Engine) matchConcrete(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	c := e.Closure()
	if !e.virtualRel(rel) {
		return c.Match(src, rel, tgt, fn)
	}
	return c.Match(src, rel, tgt, fn) && e.vp.Match(src, rel, tgt, c, func(f fact.Fact) bool {
		return c.Has(f) || fn(f)
	})
}

// virtualRel reports whether a pattern with relationship rel can also
// match virtual facts (≺ axioms, =/≠, comparators): the families the
// materialized closure does not hold. A free relationship can.
func (e *Engine) virtualRel(rel sym.ID) bool {
	u := e.u
	return rel == sym.None || rel == u.Gen || rel == u.Eq || rel == u.Neq ||
		rel == u.Lt || rel == u.Gt || rel == u.Le || rel == u.Ge
}

// MatchAll collects matching closure facts into a slice.
func (e *Engine) MatchAll(src, rel, tgt sym.ID) []fact.Fact {
	var out []fact.Fact
	e.Match(src, rel, tgt, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// ClosureSize returns the number of materialized closure facts
// (stored + derived, excluding virtual families).
func (e *Engine) ClosureSize() int { return e.Closure().Len() }

// EstimateCount returns, from the closure store's index bucket sizes
// and without enumerating, a planning figure for the number of facts Match yields
// for the pattern, and whether that figure is exact. It sees the
// pattern the way Match does: a Δ or ∇ position is a wildcard, so a
// pattern that retraction has broadened to (?e, R, Δ) counts every R
// fact (an upper bound: Match then drops non-witness relationships
// and duplicates). The figure is exact — Match yields exactly n facts,
// so n == 0 proves the pattern empty — only when nothing but the
// materialized closure can answer: a bound relationship with no
// virtual family (not ≺, =, ≠ or a comparator) and no Δ/∇ position.
// For the virtual families n counts the materialized facts alone and
// is a lower bound; such patterns are usually guards over values other
// atoms bind, which is why planners schedule an inexact zero late.
func (e *Engine) EstimateCount(src, rel, tgt sym.ID) (n int, exact bool) {
	s, r, t := e.unwild(src), e.unwild(rel), e.unwild(tgt)
	exact = s == src && r == rel && t == tgt && !e.virtualRel(rel)
	return e.Closure().EstimateCount(s, r, t), exact
}

// buildWorkers returns the number of goroutines a closure build may
// use for a round of n frontier facts. Called with e.mu held.
func (e *Engine) buildWorkers(n int) int {
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// String summarizes the engine configuration.
func (e *Engine) String() string {
	rs := e.rs.Load()
	on := 0
	for _, b := range rs.std {
		if b {
			on++
		}
	}
	return fmt.Sprintf("rules.Engine{std %d/%d, user %d, base %d facts}",
		on, int(numStdRules), len(rs.userRules), e.base.Len())
}
