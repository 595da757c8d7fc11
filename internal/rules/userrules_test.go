package rules

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// userRuleWorld stores a random management/likes graph over people
// in a chain of departments, plus a self-like and a manager pair the
// rules below need, and returns the stored facts and an engine over
// them with six user rules: a chain join, a three-atom chain, a cross
// product, a body atom on ≺ (virtual facts join in), a repeated
// variable, and a fully ground body atom on a derived ∈ fact.
func userRuleWorld(t *testing.T, seed int64, people, depts int) (*fact.Universe, *store.Store, *Engine, []fact.Fact) {
	t.Helper()
	u := fact.NewUniverse()
	st := store.New(u)
	rng := rand.New(rand.NewSource(seed))
	p := func(i int) string { return fmt.Sprintf("P%d", i) }
	var facts []fact.Fact
	add := func(s, r, t string) {
		f := u.NewFact(s, r, t)
		if st.Insert(f) {
			facts = append(facts, f)
		}
	}
	for i := 0; i < people; i++ {
		add(p(i), "MANAGES", p(rng.Intn(people)))
		add(p(i), "LIKES", p(rng.Intn(people)))
		add(p(i), "∈", fmt.Sprintf("D%d", rng.Intn(depts)))
	}
	for d := 1; d < depts; d++ {
		add(fmt.Sprintf("D%d", d), "≺", fmt.Sprintf("D%d", d-1))
	}
	add(p(2), "LIKES", p(2))
	add(p(2), "MANAGES", p(3))
	eng := New(st, virtual.New(u))
	for i, src := range []string{
		"(?x, MANAGES, ?y) & (?y, MANAGES, ?z) => (?x, SENIOR-TO, ?z)",
		"(?x, MANAGES, ?y) & (?y, LIKES, ?z) & (?z, MANAGES, ?w) => (?x, WATCHES, ?w)",
		"(?x, LIKES, ?y) & (?z, MANAGES, P0) => (?x, HEARD-OF, ?z)",
		"(?d, ≺, D0) & (?x, MANAGES, ?y) => (?y, AUDITED-BY, ?d)",
		"(?x, LIKES, ?x) & (?x, MANAGES, ?y) => (?y, VAIN-BOSS, ?x)",
		fmt.Sprintf("(P1, ∈, D0) & (?x, LIKES, P1) => (?x, FAN-OF, D%d)", depts-1),
	} {
		r, err := ParseRule(u, fmt.Sprintf("r%d", i), Inference, src)
		if err != nil {
			t.Fatalf("parse rule %d: %v", i, err)
		}
		if err := eng.AddRule(r); err != nil {
			t.Fatalf("add rule %d: %v", i, err)
		}
	}
	return u, st, eng, facts
}

func collectBounded(e *Engine, s, r, t sym.ID, depth int) []fact.Fact {
	var out []fact.Fact
	e.MatchBounded(s, r, t, depth, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return fact.Compare(out[i], out[j]) < 0 })
	return out
}

// TestThreeDirectionsAgreeOnUserRules runs the three-way check of
// the edge worlds on user rules: the closure, the closure maintained
// by insertion and delete propagation (derive1's user-rule branch),
// and the backward enumeration (every rule body joined against the
// bounded matcher) must agree. Every stored fact is retracted and
// re-asserted in turn.
func TestThreeDirectionsAgreeOnUserRules(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			u, s, e, facts := userRuleWorld(t, seed, 12, 4)
			reg := obs.NewRegistry()
			e.SetMetrics(reg)
			assertThreeWay(t, "cold build", s, e, 0)
			for _, rel := range []string{"VAIN-BOSS", "FAN-OF"} {
				if e.Closure().EstimateCount(sym.None, u.Intern(rel), sym.None) == 0 {
					t.Errorf("no %s fact in the closure; the world does not exercise its rule", rel)
				}
			}
			for _, f := range facts {
				s.Delete(f)
				assertThreeWay(t, "after retracting "+u.FormatFact(f), s, e, 0)
				s.Insert(f)
				assertThreeWay(t, "after re-asserting "+u.FormatFact(f), s, e, 0)
			}
			if got := reg.Value("lsdb_rules_rebuilds_total", "kind", "delete"); got == 0 {
				t.Error("no retraction was repaired by delete propagation; the test did not reach derive1")
			}
		})
	}
}

// TestUserRuleJoinLargeFanOut drives a rule body join through a
// variable with 8,229 values: P0 manages everyone, everyone manages
// P1, so SENIOR-TO from P0 and into P1 is exactly (P0, SENIOR-TO, P1).
func TestUserRuleJoinLargeFanOut(t *testing.T) {
	u := fact.NewUniverse()
	st := store.New(u)
	const n = 8229
	for i := 0; i < n; i++ {
		mid := fmt.Sprintf("M%d", i)
		st.Insert(u.NewFact("P0", "MANAGES", mid))
		st.Insert(u.NewFact(mid, "MANAGES", "P1"))
	}
	eng := New(st, virtual.New(u))
	r, err := ParseRule(u, "chain", Inference, "(?x, MANAGES, ?y) & (?y, MANAGES, ?z) => (?x, SENIOR-TO, ?z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddRule(r); err != nil {
		t.Fatal(err)
	}
	got := collectBounded(eng, u.Intern("P0"), u.Intern("SENIOR-TO"), sym.None, 1)
	if len(got) != 1 || got[0].T != u.Intern("P1") {
		t.Fatalf("SENIOR-TO from P0 = %v, want exactly (P0, SENIOR-TO, P1)", got)
	}
	gotMid := collectBounded(eng, sym.None, u.Intern("SENIOR-TO"), u.Intern("P1"), 1)
	if len(gotMid) != 1 {
		t.Fatalf("SENIOR-TO into P1 = %d facts, want 1", len(gotMid))
	}
}
