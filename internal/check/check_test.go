package check

import (
	"os"
	"slices"
	"strings"
	"testing"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/rules"
)

// TestRunCleanOnSmallWorlds: all oracles pass on a window of small
// generated worlds.
func TestRunCleanOnSmallWorlds(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := gen.Generate(seed, gen.Small())
		if f := Run(w, Options{}); f != nil {
			t.Fatalf("seed %d: %v\n%s", seed, f, w.Program())
		}
	}
}

// TestRunCleanOnMediumWorlds: a few medium worlds, which cross the
// engine's parallel-round threshold.
func TestRunCleanOnMediumWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("medium worlds take a few seconds")
	}
	for seed := int64(100); seed < 106; seed++ {
		w := gen.Generate(seed, gen.Medium())
		if f := Run(w, Options{}); f != nil {
			t.Fatalf("seed %d: %v\n%s", seed, f, w.Program())
		}
	}
}

// TestRunCleanOnChurnWorlds: all oracles pass on high-churn worlds —
// interleaved assert/retract/toggle bursts over both shared and
// disjoint relationship classes. These schedules drive the dependency-
// tracked cache eviction and delete-propagation paths through the
// cached-vs-uncached and incremental-vs-full differentials; the stats
// sink confirms the eviction path actually ran.
func TestRunCleanOnChurnWorlds(t *testing.T) {
	var agg rules.CacheStats
	sink := func(st rules.CacheStats) {
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
	}
	for seed := int64(0); seed < 12; seed++ {
		cc := gen.SmallChurn()
		cc.Disjoint = seed%2 != 0
		w := gen.Churn(seed, cc)
		if f := Run(w, Options{}); f != nil {
			t.Fatalf("seed %d (disjoint=%v): %v\n%s", seed, cc.Disjoint, f, w.Program())
		}
		if err := cachedVsUncached(w, sink); err != nil {
			t.Fatalf("seed %d (disjoint=%v): %v", seed, cc.Disjoint, err)
		}
	}
	if agg.Hits == 0 {
		t.Error("churn oracles ran without a single shared-table hit")
	}
	if agg.Evictions == 0 {
		t.Error("churn writes caused no dependency evictions")
	}
}

// TestChurnWorldsShrink: churn programs keep the subsequence-validity
// property, so ddmin shrinking works on them — an injected rule skip
// found on a churn world must shrink to a small repro that still
// fails.
func TestChurnWorldsShrink(t *testing.T) {
	inject := func(db *lsdb.Database) { db.Engine().Exclude(rules.MemberSource) }
	opts := Options{Perturb: inject}
	fails := func(w *gen.World) bool { return ParallelEquivalence(w, opts) != nil }

	var failing *gen.World
	for seed := int64(0); seed < 100; seed++ {
		w := gen.Churn(seed, gen.SmallChurn())
		if fails(w) {
			failing = w
			break
		}
	}
	if failing == nil {
		t.Fatal("injected member-source skip never detected across 100 churn seeds")
	}
	min := gen.Shrink(failing, fails)
	if !fails(min) {
		t.Fatal("shrunk churn world no longer triggers the oracle")
	}
	if min.NumAsserts() > 20 {
		t.Fatalf("shrunk churn repro has %d asserts, want ≤ 20", min.NumAsserts())
	}
}

// TestInjectedRuleSkipIsCaught is the harness's own acceptance test:
// deliberately disabling one inference rule on one side of the
// parallel-equivalence oracle must be detected, and shrinking the
// failing world must produce a repro of at most 20 asserts.
func TestInjectedRuleSkipIsCaught(t *testing.T) {
	inject := func(db *lsdb.Database) { db.Engine().Exclude(rules.MemberSource) }
	opts := Options{Perturb: inject}

	fails := func(w *gen.World) bool {
		f := ParallelEquivalence(w, opts)
		return f != nil
	}

	var failing *gen.World
	for seed := int64(0); seed < 200; seed++ {
		w := gen.Generate(seed, gen.Small())
		if fails(w) {
			failing = w
			break
		}
	}
	if failing == nil {
		t.Fatal("injected member-source skip never detected across 200 seeds")
	}

	min := gen.Shrink(failing, fails)
	if !fails(min) {
		t.Fatal("shrunk world no longer triggers the oracle")
	}
	t.Logf("shrunk repro: %d ops, %d asserts\n%s",
		len(min.Ops), min.NumAsserts(), min.Program())
	if min.NumAsserts() > 20 {
		t.Fatalf("shrunk repro has %d asserts, want ≤ 20", min.NumAsserts())
	}
}

// TestInjectedInversionSkipIsCaught repeats the injection test with a
// different rule to make sure detection is not rule-specific.
func TestInjectedInversionSkipIsCaught(t *testing.T) {
	inject := func(db *lsdb.Database) { db.Engine().Exclude(rules.Inversion) }
	opts := Options{Perturb: inject}
	detected := false
	for seed := int64(0); seed < 200; seed++ {
		w := gen.Generate(seed, gen.Small())
		if f := ParallelEquivalence(w, opts); f != nil {
			detected = true
			if f.Oracle != "parallel-equivalence" {
				t.Fatalf("unexpected oracle name %q", f.Oracle)
			}
			break
		}
	}
	if !detected {
		t.Fatal("injected inversion skip never detected across 200 seeds")
	}
}

// TestDescribeIncludesProgram: the failure report embeds the repro
// program so it can be replayed without the generator.
func TestDescribeIncludesProgram(t *testing.T) {
	w := gen.Generate(1, gen.Small())
	f := &Failure{Oracle: "demo", Detail: "divergence"}
	out := Describe(f, w)
	if !strings.Contains(out, "demo: divergence") {
		t.Error("missing oracle detail")
	}
	if !strings.Contains(out, "assert (") {
		t.Error("missing program listing")
	}
}

// TestTxRollbackOracle runs the rollback oracle directly across seeds
// (it is also part of Run, but this pins the satellite requirement).
func TestTxRollbackOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		w := gen.Generate(seed, gen.Small())
		if err := txRollback(w, Options{}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Program())
		}
	}
}

// TestBoundedOracleDirect pins the closure-vs-bounded oracle across
// seeds with rule toggles in play.
func TestBoundedOracleDirect(t *testing.T) {
	for seed := int64(50); seed < 80; seed++ {
		w := gen.Generate(seed, gen.Small())
		if err := closureVsBounded(w, Options{}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Program())
		}
	}
}

// TestRoundEqualsDepth pins the bounded matcher's depth contract on
// gen Small and SmallChurn worlds, seeds 1–40: the least depth at which
// HasBounded finds a derived closure fact is its round.
func TestRoundEqualsDepth(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, w := range []*gen.World{gen.Generate(seed, gen.Small()), gen.Churn(seed, gen.SmallChurn())} {
			if err := roundEqualsDepth(w, Options{}); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestCachedVsUncachedOracle pins the new subgoal-cache oracle across
// seeds with write and toggle churn, and checks the stats sink
// reports real cache traffic (the back-to-back probes after each
// sampled op must share subgoals).
func TestCachedVsUncachedOracle(t *testing.T) {
	var agg rules.CacheStats
	sink := func(st rules.CacheStats) {
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Invalidations += st.Invalidations
	}
	for seed := int64(0); seed < 30; seed++ {
		w := gen.Generate(seed, gen.Small())
		if err := cachedVsUncached(w, sink); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Program())
		}
	}
	if agg.Hits == 0 {
		t.Error("oracle ran without a single shared-table hit")
	}
	if agg.Invalidations == 0 {
		t.Error("interleaved writes caused no invalidations")
	}
}

// TestBatchVsSingleOracle runs the serving-layer differential oracle
// directly across seeds: POST /batch must answer exactly what the
// single endpoints answer.
func TestBatchVsSingleOracle(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		w := gen.Generate(seed, gen.Small())
		if err := batchVsSingle(w, Options{}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Program())
		}
	}
}

// TestParallelEquivalenceComparesPremises: the oracle compares each
// fact's rule and premises, and re-asserting a stored fact — through
// delete-and-rederive, then incremental maintenance — moves neither on
// any of 200 worlds. Provenance is worked out from the database, not
// recorded by whichever path reached the closure, so no history can
// make the two sides disagree.
func TestParallelEquivalenceComparesPremises(t *testing.T) {
	reassert := func(db *lsdb.Database) {
		base := db.Engine().Base().Facts()
		if len(base) == 0 {
			return
		}
		slices.SortFunc(base, fact.Compare)
		f := base[len(base)/2]
		db.ClosureLen()
		if _, err := db.RetractFact(f); err != nil {
			t.Fatal(err)
		}
		db.ClosureLen()
		if err := db.AssertFact(f); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Perturb: reassert}
	for seed := int64(0); seed < 200; seed++ {
		w := gen.Generate(seed, gen.Small())
		if f := ParallelEquivalence(w, opts); f != nil {
			t.Fatalf("seed %d: %v", seed, f)
		}
	}
}

// TestIncrementalVsFullProvenance: a database maintained through
// insert runs, delete propagation and rule toggles, with a closure
// build forced every second op, names the same rule and premises for
// every closure fact as a fresh build of the same world.
func TestIncrementalVsFullProvenance(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, w := range []*gen.World{gen.Generate(seed, gen.Small()), gen.Churn(seed, gen.SmallChurn())} {
			if f := IncrementalVsFull(w); f != nil {
				t.Errorf("seed %d: %v", seed, f)
			}
		}
	}
}

// TestDesignListsEveryOracle: DESIGN.md §6 describes every row of the
// oracle table by name.
func TestDesignListsEveryOracle(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	start := strings.Index(s, "\n## 6. ")
	end := strings.Index(s, "\n## 7. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §6")
	}
	for _, o := range Oracles {
		if !strings.Contains(s[start:end], "`"+o.Name+"`") {
			t.Errorf("DESIGN.md §6 does not list oracle %q", o.Name)
		}
	}
}
