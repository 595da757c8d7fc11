package rules

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
)

// On-demand matching answers a template query without materializing
// the closure: rules are applied backwards from the query pattern,
// with memoization, down to the stored and virtual facts. The result
// is exact with respect to a bounded derivation depth — every fact
// derivable from the stored facts by at most `depth` rule
// applications is found. With depth at least the derivation diameter
// of the database the result equals the full closure (property tests
// assert this agreement on generated databases).
//
// This is the second retrieval strategy of DESIGN.md experiment E7:
// it trades repeated work per query for not paying closure
// materialization and storage up front, which is the right trade for
// sparse browsing over a large, rarely-queried heap of facts.
// Repeated work across *calls* is absorbed by the engine's
// cross-query subgoal cache (subgoal.go): subgoal results survive
// between queries until a write, rule toggle, or Invalidate moves one
// of the version labels.

// bkey identifies one bounded sub-query: a pattern plus the remaining
// derivation depth.
type bkey struct {
	s, r, t sym.ID
	d       int
}

// bounded is the per-call evaluation context. It carries its own
// immutable ruleset snapshot, so a long backward enumeration is never
// affected by (and never blocks) concurrent configuration changes.
// shared is the cross-query subgoal table (nil when the cache is
// off); memo overlays it per call and also holds results not eligible
// for sharing (tainted, or table at capacity). Contexts are pooled
// (getBounded/putBounded in scratch.go): the maps and the arena
// survive between calls, so a warm query allocates almost nothing.
type bounded struct {
	e      *Engine
	cfg    *ruleset
	base   *store.Store
	shared *subgoalTable
	memo   map[bkey]subgoalEntry
	open   map[bkey]bool // cycle guard for in-progress keys
	arena  factArena     // backing for call-local memo results

	hits, misses uint64 // shared-table counters, flushed on return
	openHits     int    // times a subgoal hit an open (in-progress) key
	tainted      map[bkey]bool
	indiv        map[sym.ID]bool // Individual per relationship, read once per call (source.isData)

	// curDeps accumulates the dependency summary of the subgoal being
	// computed: the OR of depBits for every base-fact class read so
	// far, including everything consumed from child subgoals. enum
	// saves/restores it around each recursion and ORs the child's
	// summary into the parent's, so an entry's recorded deps cover its
	// whole transitive read set (see subgoal.go).
	curDeps uint64

	// Observability. tr records a span per subgoal when non-nil
	// (MatchBoundedTrace); scanned and the join stats are flushed to
	// the engine's registry counters on return — per-call accumulation
	// keeps the hot recursion free of atomic traffic.
	tr      *obs.Trace
	scanned uint64 // candidate facts enumerated from base + virtual
}

// MatchBounded calls fn for every fact matching the pattern that is
// derivable with at most depth rule applications. sym.None positions
// are wildcards; Δ and ∇ act as wildcards as in Match. Iteration
// stops when fn returns false; MatchBounded reports completion.
func (e *Engine) MatchBounded(src, rel, tgt sym.ID, depth int, fn func(fact.Fact) bool) bool {
	return e.MatchBoundedTrace(src, rel, tgt, depth, nil, fn)
}

// MatchBoundedTrace is MatchBounded with a trace recorder: when tr is
// non-nil, every subgoal evaluation is recorded as a span carrying
// its pattern, remaining depth, duration, fact count and cache
// disposition (obs.DispHit/Miss/Memo/Cycle/Computed). The
// dispositions map exactly onto the subgoal-cache counters — hit and
// miss spans are the shared-table lookups CacheStats counts, memo and
// cycle spans are per-call events it does not — which is what lets
// the differential oracle reconcile a trace against the counter
// deltas it caused. A nil tr makes this identical to MatchBounded.
func (e *Engine) MatchBoundedTrace(src, rel, tgt sym.ID, depth int, tr *obs.Trace, fn func(fact.Fact) bool) bool {
	e.m.maxDepth.Max(int64(depth))
	qs, qr, qt := e.unwild(src), e.unwild(rel), e.unwild(tgt)
	wildS, wildR, wildT := qs != src, qr != rel, qt != tgt

	// The ruleset snapshot and the base version are read before any
	// base fact: a write racing past this point can leave entries
	// computed from newer content under an older label, which the next
	// acquire discards — never the other way around (see subgoal.go).
	cfg := e.rs.Load()
	b := getBounded(e, cfg, tr)
	results := b.enum(qs, qr, qt, depth)
	if b.hits != 0 {
		e.sg.hits.Add(b.hits)
	}
	if b.misses != 0 {
		e.sg.misses.Add(b.misses)
	}
	e.m.factsScanned.Add(b.scanned)

	complete := true
	if anyWild := wildS || wildR || wildT; !anyWild {
		// No wildcard rewriting: enum results are already unique.
		for _, f := range results {
			if !fn(f) {
				complete = false
				break
			}
		}
	} else {
		// Rewriting positions back to Δ/∇ can collapse distinct facts,
		// so dedup through a pooled set.
		seen := getSeen()
		for _, f := range results {
			if !e.wildcardRel(f.R) {
				continue
			}
			if wildS {
				f.S = src
			}
			if wildR {
				f.R = rel
			}
			if wildT {
				f.T = tgt
			}
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			if !fn(f) {
				complete = false
				break
			}
		}
		putSeen(seen)
	}
	// results may be arena-backed; release the context only after the
	// iteration above is done with them.
	putBounded(b)
	return complete
}

// BoundedMatcher adapts depth-bounded on-demand matching to the query
// evaluator's Matcher interface, so whole queries can be answered
// without materializing the closure. Repeated evaluations share the
// engine's cross-query subgoal cache, and join planning estimates
// come from the base store's indexes (the bounded closure is never
// materialized, so its exact cardinalities don't exist; base bucket
// sizes preserve the relative selectivity the planner needs).
type BoundedMatcher struct {
	e     *Engine
	depth int
}

// Bounded returns a matcher view of the engine at the given
// derivation depth.
func (e *Engine) Bounded(depth int) BoundedMatcher { return BoundedMatcher{e: e, depth: depth} }

// Match implements query.Matcher via MatchBounded.
func (m BoundedMatcher) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	return m.e.MatchBounded(src, rel, tgt, m.depth, fn)
}

// EstimateCount implements query.Matcher from the base store, with
// Δ/∇ positions counted as the wildcards MatchBounded takes them for.
// The figure is never exact: inference only adds to the stored facts,
// so a stored count of 0 does not prove the pattern empty.
func (m BoundedMatcher) EstimateCount(src, rel, tgt sym.ID) (n int, exact bool) {
	e := m.e
	return e.base.EstimateCount(e.unwild(src), e.unwild(rel), e.unwild(tgt)), false
}

// HasBounded reports whether f is derivable within depth rule applications.
func (e *Engine) HasBounded(f fact.Fact, depth int) bool {
	found := false
	e.MatchBounded(f.S, f.R, f.T, depth, func(fact.Fact) bool {
		found = true
		return false
	})
	return found
}

func match3(f fact.Fact, s, r, t sym.ID) bool {
	return (s == sym.None || f.S == s) &&
		(r == sym.None || f.R == r) &&
		(t == sym.None || f.T == t)
}

// enum returns all facts matching (s,r,t) derivable within d steps,
// sorted in (S,R,T) order. The returned slice is shared (per-call memo
// and possibly the cross-query table) and must not be mutated; when
// the result is call-local it is carved from the context's arena and
// dies at putBounded.
//
// The cycle guard runs before the shared-table lookup so that every
// miss counted corresponds to a subgoal that is then computed (an
// open key can never be in the table — results are stored only after
// the key closes). That keeps the disposition↔counter mapping exact:
// hit and miss spans are counted lookups, cycle and memo spans are
// not.
func (b *bounded) enum(s, r, t sym.ID, d int) []fact.Fact {
	key := bkey{s, r, t, d}
	if ent, ok := b.memo[key]; ok {
		b.curDeps |= ent.deps
		if b.tainted[key] {
			// A tainted result embeds a cycle cut; let in-progress
			// ancestors know so they stay out of the shared table too.
			b.openHits++
		}
		b.traceLeaf(s, r, t, d, obs.DispMemo, len(ent.facts))
		return ent.facts
	}
	if b.open[key] {
		b.openHits++
		b.traceLeaf(s, r, t, d, obs.DispCycle, 0)
		return nil
	}
	if b.shared != nil {
		if ent, ok := b.shared.load(key, b.e.sg.evictDependency); ok {
			b.memo[key] = ent
			b.curDeps |= ent.deps
			b.hits++
			b.traceLeaf(s, r, t, d, obs.DispHit, len(ent.facts))
			return ent.facts
		}
		b.misses++
	}
	span := false
	if b.tr != nil {
		span = b.tr.Begin("subgoal", b.pattern(s, r, t), d)
	}
	b.open[key] = true
	openBefore := b.openHits
	savedDeps := b.curDeps
	b.curDeps = b.scanDeps(s, r, t, d)

	// Candidates accumulate in a pooled collector and are deduped by
	// sort + adjacent-compare — no per-subgoal set map or closure. The
	// sort also fixes the result order, making bounded evaluation
	// deterministic.
	col := getCollector(s, r, t)
	b.base.Match(s, r, t, col.scan)
	b.e.vp.Match(s, r, t, b.base, col.scan)
	for _, ax := range b.e.axiomFacts() {
		col.add(ax)
	}

	if d > 0 {
		// Every rule applied backwards, premises derivable within d-1
		// steps.
		b.e.goal(b.e.std, b.cfg, source{b: b, d: d - 1, indiv: b.indiv}, fact.Fact{S: s, R: r, T: t}, col.emit)
	}
	b.scanned += col.scanned

	delete(b.open, key)
	buf := col.buf
	slices.SortFunc(buf, fact.Compare)
	buf = slices.Compact(buf)

	// Computed under an in-progress ancestor: the result depends on
	// evaluation order, so it is valid for this call only. (Depth
	// strictly decreases through goal, so this is insurance — the
	// guard cannot fire on the current rules.)
	taint := b.openHits != openBefore
	deps := b.curDeps
	b.curDeps = savedDeps | deps

	// The memoized result must outlive the pooled buffer. Entries
	// bound for the shared table outlive the call too and get exact
	// heap copies; call-local results are carved from the arena.
	var out []fact.Fact
	if n := len(buf); n > 0 {
		if b.shared != nil && !taint {
			out = make([]fact.Fact, n)
		} else {
			out = b.arena.alloc(n)
		}
		copy(out, buf)
	}
	col.buf = buf
	putCollector(col)

	b.memo[key] = subgoalEntry{facts: out, deps: deps}
	if taint {
		// A cycle cut returned nil without contributing its read set,
		// so deps may be incomplete — tainted results stay call-local
		// (and taint every in-progress ancestor via openHits).
		if b.tainted == nil {
			b.tainted = make(map[bkey]bool)
		}
		b.tainted[key] = true
	} else if b.shared != nil {
		b.shared.store(key, out, deps)
	}
	if span {
		disp := obs.DispMiss
		if b.shared == nil {
			disp = obs.DispComputed // no table: nothing was counted
		}
		b.tr.End(disp, len(out))
	}
	return out
}

// scanDeps is the dependency contribution of the subgoal's own direct
// scans: the base-store class it matches, plus allDeps for patterns
// whose answers can depend on any base fact — a free relation
// position scans every class, and the virtual provider enumerates the
// store's active domain (which any write extends) for open-ended ≺,
// =, ≠ and comparator patterns (see virtual.Provider.Match). At d > 0
// the backward rules consult Individual(), which reads class-relation
// declarations (rel, ∈, @class), so the membership class is added;
// every other depth-d dependency arrives through child subgoals.
func (b *bounded) scanDeps(s, r, t sym.ID, d int) uint64 {
	if r == sym.None {
		return allDeps
	}
	u := b.e.u
	deps := depBits(r)
	switch r {
	case u.Gen:
		if (s == sym.None && t == sym.None) ||
			(s == u.Bottom && t == sym.None) ||
			(s == sym.None && t == u.Top) {
			return allDeps
		}
	case u.Eq:
		if s == sym.None && t == sym.None {
			return allDeps
		}
	case u.Neq, u.Lt, u.Gt, u.Le, u.Ge:
		if s == sym.None || t == sym.None {
			return allDeps
		}
	}
	if d > 0 {
		deps |= depBits(u.Member)
	}
	return deps
}

// traceLeaf records a zero-duration span for a subgoal answered
// without computation (memo, shared hit, or cycle cut).
func (b *bounded) traceLeaf(s, r, t sym.ID, d int, disp string, facts int) {
	if b.tr == nil {
		return
	}
	if b.tr.Begin("subgoal", b.pattern(s, r, t), d) {
		b.tr.End(disp, facts)
	}
}

// pattern renders a subgoal pattern for trace events; wildcards
// (sym.None) print as "?".
func (b *bounded) pattern(s, r, t sym.ID) string {
	u := b.e.u
	n := func(id sym.ID) string {
		if id == sym.None {
			return "?"
		}
		return u.Name(id)
	}
	return "(" + n(s) + ", " + n(r) + ", " + n(t) + ")"
}

// boundedEval is the Matcher user-rule bodies join against backwards:
// the facts derivable within d steps. Its estimate is the base store's
// count, never exact: inference only adds to the stored facts.
type boundedEval struct {
	b *bounded
	d int
}

func (m boundedEval) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	for _, f := range m.b.enum(s, r, t, m.d) {
		if !fn(f) {
			return false
		}
	}
	return true
}

func (m boundedEval) EstimateCount(s, r, t sym.ID) (int, bool) {
	return m.b.base.EstimateCount(s, r, t), false
}
