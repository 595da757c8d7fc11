package rules

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// engineMetrics holds the engine's registry handles. The zero value
// (all nil) is a set of no-ops, so engines without SetMetrics — unit
// tests, differential-harness replicas — run uninstrumented for free.
type engineMetrics struct {
	rebuildsFull   *obs.Counter
	rebuildsIncr   *obs.Counter
	rebuildsDelete *obs.Counter   // snapshots maintained by delete propagation
	deleteProps    *obs.Counter   // delete propagations with a non-empty cone
	deleteCone     *obs.Histogram // overdeleted cone size per propagation
	rebuildNs      *obs.Histogram
	frontier       *obs.Histogram // frontier size per derivation round
	rounds         *obs.Counter
	buildWorkers   *obs.Gauge // high-water mark of goroutines in one round

	factsScanned *obs.Counter // candidate facts enumerated by bounded matching
	maxDepth     *obs.Gauge   // deepest MatchBounded depth requested

	sealNs     *obs.Histogram // posting-index build time, per build
	sealBuilds *obs.Counter   // posting indexes built (full builds and folds)
	folds      *obs.Counter   // builds that folded a base with its delta and tombstones

	// reg and byRule back lsdb_closure_facts_by_rule: one gauge per
	// rule name a full build has seen, so a rule that stops deriving
	// reads 0 rather than its old count. byRuleMu guards the map, not
	// the gauges: /stats reads it while a build may be adding a rule.
	reg      *obs.Registry
	byRuleMu *sync.Mutex
	byRule   map[string]*obs.Gauge
}

// sealed records one posting-index build of a publish: a fold of the
// layers into a fresh base, or a full build's generations, which
// count as one build however many a build folded.
func (m *engineMetrics) sealed(d time.Duration, fold bool) {
	m.sealNs.Observe(d.Nanoseconds())
	m.sealBuilds.Inc()
	if fold {
		m.folds.Inc()
	}
}

// setFactsByRule publishes a full build's closure breakdown: how many
// facts each rule first put into it, "stored" for the base facts and
// "axiom" for the built-in ones, so the series sum to the closure size
// as of the last full build. Incremental and delete maintenance leave
// it alone.
func (m *engineMetrics) setFactsByRule(counts map[string]int) {
	if m.reg == nil {
		return
	}
	m.byRuleMu.Lock()
	defer m.byRuleMu.Unlock()
	for rule, g := range m.byRule {
		if _, ok := counts[rule]; !ok {
			g.Set(0)
		}
	}
	for rule, n := range counts {
		g, ok := m.byRule[rule]
		if !ok {
			g = m.reg.Gauge("lsdb_closure_facts_by_rule", "rule", rule)
			m.byRule[rule] = g
		}
		g.Set(int64(n))
	}
}

// SetMetrics registers the engine's metrics in r. Must be called
// before the engine is shared across goroutines (lsdb.Open wires it
// right after construction). The subgoal-cache counters are the
// engine's own handles registered by reference — CacheStats and the
// registry read the very same atomics, one source of truth.
func (e *Engine) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	e.m = engineMetrics{
		rebuildsFull:   r.Counter("lsdb_rules_rebuilds_total", "kind", "full"),
		rebuildsIncr:   r.Counter("lsdb_rules_rebuilds_total", "kind", "incremental"),
		rebuildsDelete: r.Counter("lsdb_rules_rebuilds_total", "kind", "delete"),
		deleteProps:    r.Counter("lsdb_closure_delete_propagations_total"),
		deleteCone:     r.Histogram("lsdb_closure_delete_cone_facts"),
		rebuildNs:      r.Histogram("lsdb_rules_rebuild_ns"),
		frontier:       r.Histogram("lsdb_rules_frontier_facts"),
		rounds:         r.Counter("lsdb_rules_rounds_total"),
		buildWorkers:   r.Gauge("lsdb_rules_build_workers"),
		factsScanned:   r.Counter("lsdb_ondemand_facts_scanned_total"),
		maxDepth:       r.Gauge("lsdb_ondemand_max_depth"),

		sealNs:     r.Histogram("lsdb_index_seal_ns"),
		sealBuilds: r.Counter("lsdb_index_seal_builds_total"),
		folds:      r.Counter("lsdb_closure_folds_total"),

		reg:      r,
		byRuleMu: new(sync.Mutex),
		byRule:   map[string]*obs.Gauge{},
	}
	r.RegisterCounter("lsdb_subgoal_hits_total", e.sg.hits)
	r.RegisterCounter("lsdb_subgoal_misses_total", e.sg.misses)
	r.RegisterCounter("lsdb_subgoal_invalidations_total", e.sg.invalidations)
	r.RegisterCounter("lsdb_subgoal_evicted_total", e.sg.evictDependency, "reason", "dependency")
	r.RegisterCounter("lsdb_subgoal_evicted_total", e.sg.evictRuleset, "reason", "ruleset")
	r.RegisterCounter("lsdb_subgoal_evicted_total", e.sg.evictEpoch, "reason", "epoch")
	r.RegisterCounter("lsdb_subgoal_evicted_total", e.sg.evictHistory, "reason", "history")
	r.GaugeFunc("lsdb_subgoal_entries", func() float64 {
		if t := e.sg.table.Load(); t != nil {
			return float64(t.size.Load())
		}
		return 0
	})
	// Closure gauges read the *published* snapshot only: a scrape must
	// never trigger a closure build.
	r.GaugeFunc("lsdb_closure_facts", func() float64 { return float64(e.MaterializedSize()) })
	// Posting-index gauges describe the published closure's sealed
	// index (zero when no snapshot is published yet).
	index := func(field func(store.IndexStats) int) func() float64 {
		return func() float64 {
			if s := e.snap.Load(); s != nil {
				return float64(field(s.closure.IndexStats()))
			}
			return 0
		}
	}
	r.GaugeFunc("lsdb_index_posting_bytes", index(func(st store.IndexStats) int { return st.PostingBytes }))
	r.GaugeFunc("lsdb_index_buckets", index(store.IndexStats.Buckets))
	// The layers on top of the published closure's base: facts added
	// and base facts tombstoned since the last fold.
	r.GaugeFunc("lsdb_closure_delta_facts", index(func(st store.IndexStats) int { return st.Delta }))
	r.GaugeFunc("lsdb_closure_tombstones", index(func(st store.IndexStats) int { return st.Tombstones }))
	r.GaugeFunc("lsdb_closure_warm", func() float64 {
		if e.Warm() {
			return 1
		}
		return 0
	})
}

// ClosureFactsByRule returns the lsdb_closure_facts_by_rule gauges:
// how many facts of the closure each rule derived, by the rule of each
// fact's canonical derivation, as of the last full build, with
// "stored" and "axiom" for the rest. It is nil for an
// engine without metrics or before its first full build.
func (e *Engine) ClosureFactsByRule() map[string]int64 {
	m := &e.m
	if m.reg == nil {
		return nil
	}
	m.byRuleMu.Lock()
	defer m.byRuleMu.Unlock()
	if len(m.byRule) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m.byRule))
	for rule, g := range m.byRule {
		out[rule] = g.Value()
	}
	return out
}

// MaterializedSize returns the fact count of the currently published
// closure snapshot, or 0 when none is published. Unlike ClosureSize
// it never builds: it is safe to call from metric scrapes at any
// rate without perturbing the system being observed.
func (e *Engine) MaterializedSize() int {
	if s := e.snap.Load(); s != nil {
		return s.closure.Len()
	}
	return 0
}

// Warm reports whether the published closure snapshot is current for
// the present base store and rule configuration (i.e. the next warm
// read will not rebuild).
func (e *Engine) Warm() bool { return e.validSnapshot() != nil }
