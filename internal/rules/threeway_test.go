package rules

import (
	"slices"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// closureSet returns e's materialized closure, sorted.
func closureSet(e *Engine) []fact.Fact {
	fs := e.Closure().Facts()
	slices.SortFunc(fs, fact.Compare)
	return fs
}

// assertThreeWay checks that the engine's (possibly maintained)
// closure is the closure a fresh engine with the same rules builds
// over the same base, and that the backward matcher at a depth past
// the derivation diameter enumerates exactly that closure plus virtual
// facts. The depth is minDepth or, if larger, the fresh build's round
// count: its last round derives nothing, so that is one past the
// diameter. The backward side is compared as an enumerated set:
// HasBounded on a Δ fact would treat the Δ as a wildcard and hide a
// closure-only fact.
func assertThreeWay(t *testing.T, step string, s *store.Store, e *Engine, minDepth int) {
	t.Helper()
	u := s.Universe()
	got := closureSet(e)
	fresh := New(s, e.vp)
	reg := obs.NewRegistry()
	fresh.SetMetrics(reg)
	rs := e.rs.Load()
	for r, on := range rs.std {
		if !on {
			fresh.Exclude(StdRule(r))
		}
	}
	for _, r := range rs.userRules {
		if err := fresh.AddRule(*r); err != nil {
			t.Fatal(err)
		}
	}
	if want := closureSet(fresh); !slices.Equal(got, want) {
		for _, f := range got {
			if !fresh.Closure().Has(f) {
				t.Errorf("%s: maintained closure has %s, a fresh build does not", step, u.FormatFact(f))
			}
		}
		for _, f := range want {
			if !e.Closure().Has(f) {
				t.Errorf("%s: maintained closure lacks %s (%s in a fresh build)", step, u.FormatFact(f), fresh.Explain(f))
			}
		}
	}
	depth := max(minDepth, int(reg.Value("lsdb_rules_rounds_total")))
	bounded := map[fact.Fact]bool{}
	for _, f := range e.BackwardAll(sym.None, sym.None, sym.None, depth) {
		bounded[f] = true
	}
	for _, f := range got {
		if !bounded[f] && !e.vp.Has(f) {
			t.Errorf("%s: closure fact %s (%s) is not enumerated backwards", step, u.FormatFact(f), e.Explain(f))
		}
	}
	for f := range bounded {
		if !e.Closure().Has(f) && !e.vp.Has(f) {
			t.Errorf("%s: backward fact %s is not in the closure", step, u.FormatFact(f))
		}
	}
}

// TestThreeDirectionsAgreeOnEdgeWorlds pins closure ≡ DRed-maintained
// closure ≡ backward enumeration on the worlds where the three
// hand-written copies of the rules used to differ or came close to:
// stored ≺ facts that restate a virtual axiom, a self-synonym, and a
// two-way ≺ pair losing one side at a time. Every stored fact is
// retracted and re-asserted in turn, so each is once the fact delete
// propagation starts from and once the fact insertion extends by.
func TestThreeDirectionsAgreeOnEdgeWorlds(t *testing.T) {
	for name, facts := range EdgeWorlds {
		t.Run(name, func(t *testing.T) {
			u := fact.NewUniverse()
			s := store.New(u)
			e := New(s, virtual.New(u))
			reg := obs.NewRegistry()
			e.SetMetrics(reg)
			ins(u, s, facts...)
			assertThreeWay(t, "cold build", s, e, 12)
			for _, f := range facts {
				g := u.NewFact(f[0], f[1], f[2])
				s.Delete(g)
				assertThreeWay(t, "after retracting "+u.FormatFact(g), s, e, 12)
				s.Insert(g)
				assertThreeWay(t, "after re-asserting "+u.FormatFact(g), s, e, 12)
			}
			if got := reg.Value("lsdb_rules_rebuilds_total", "kind", "delete"); got == 0 {
				t.Error("no retraction was repaired by delete propagation; the test did not reach derive1")
			}
		})
	}
}

// TestVirtualGenPremiseIsInert states the rule the three directions
// share: a stored ≺ fact that restates a virtual axiom concludes
// nothing. (CAT,≺,Δ) used to lift (JOHN,LIKES,CAT) to (JOHN,LIKES,Δ) in
// the closure and in no backward answer.
func TestVirtualGenPremiseIsInert(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"JOHN", "LIKES", "CAT"}, [3]string{"CAT", "isa", "TOP"})
	if lifted := u.NewFact("JOHN", "LIKES", "TOP"); e.Closure().Has(lifted) {
		t.Errorf("closure holds %s, derived through a stored virtual axiom (%s)", u.FormatFact(lifted), e.Explain(lifted))
	}
	// Δ in a query position still matches anything (§5.2).
	if !e.Has(u.NewFact("JOHN", "LIKES", "TOP")) {
		t.Error("(JOHN, LIKES, Δ) no longer holds as a wildcard query")
	}
}
