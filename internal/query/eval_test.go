package query_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

func evalSetup(facts ...[3]string) (*fact.Universe, *query.Evaluator) {
	u := fact.NewUniverse()
	s := store.New(u)
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
	e := rules.New(s, virtual.New(u))
	return u, &query.Evaluator{
		M:      e,
		Domain: func() []sym.ID { return e.Closure().Entities() },
	}
}

func mustEval(t *testing.T, u *fact.Universe, ev *query.Evaluator, src string) *query.Result {
	t.Helper()
	res, err := ev.Eval(query.MustParse(u, src))
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return res
}

func tupleNames(u *fact.Universe, res *query.Result) [][]string {
	out := make([][]string, len(res.Tuples))
	for i, tp := range res.Tuples {
		row := make([]string, len(tp))
		for j, id := range tp {
			row[j] = u.Name(id)
		}
		out[i] = row
	}
	return out
}

func TestEvalSingleTemplate(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"MOBY-DICK", "in", "BOOK"},
		[3]string{"HAMLET", "in", "BOOK"},
		[3]string{"JOHN", "in", "PERSON"})
	res := mustEval(t, u, ev, "(?y, in, BOOK)")
	if len(res.Tuples) != 2 {
		t.Fatalf("books = %v", tupleNames(u, res))
	}
}

func TestEvalSelfCitation(t *testing.T) {
	// §2.7: (x, CITES, x) matches self-citations only.
	u, ev := evalSetup(
		[3]string{"B1", "CITES", "B1"},
		[3]string{"B1", "CITES", "B2"},
		[3]string{"B2", "CITES", "B1"})
	res := mustEval(t, u, ev, "(?x, CITES, ?x)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "B1" {
		t.Errorf("self-citations = %v", got)
	}
}

func TestEvalAuthorsWhoCiteThemselves(t *testing.T) {
	// §2.7's worked example.
	u, ev := evalSetup(
		[3]string{"B1", "in", "BOOK"},
		[3]string{"B2", "in", "BOOK"},
		[3]string{"ANNA", "in", "PERSON"},
		[3]string{"BOB", "in", "PERSON"},
		[3]string{"B1", "CITES", "B1"},
		[3]string{"B1", "AUTHOR", "ANNA"},
		[3]string{"B2", "CITES", "B1"},
		[3]string{"B2", "AUTHOR", "BOB"})
	res := mustEval(t, u, ev,
		"exists ?x . (?x, in, BOOK) & (?y, in, PERSON) & (?x, CITES, ?x) & (?x, AUTHOR, ?y)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "ANNA" {
		t.Errorf("self-citing authors = %v", got)
	}
}

func TestEvalNegativeViaComplement(t *testing.T) {
	// §2.7: "all books whose author is not John" via ≠.
	u, ev := evalSetup(
		[3]string{"B1", "in", "BOOK"},
		[3]string{"B2", "in", "BOOK"},
		[3]string{"B1", "AUTHOR", "JOHN"},
		[3]string{"B2", "AUTHOR", "MARY"})
	res := mustEval(t, u, ev,
		"(?x, in, BOOK) & (?x, AUTHOR, ?y) & (?y, !=, JOHN)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "B2" {
		t.Errorf("books not by John = %v", got)
	}
}

func TestEvalDisjunction(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"A", "LOVES", "X"},
		[3]string{"B", "HATES", "X"})
	res := mustEval(t, u, ev, "(?p, LOVES, X) | (?p, HATES, X)")
	if len(res.Tuples) != 2 {
		t.Errorf("disjunction = %v", tupleNames(u, res))
	}
}

func TestEvalDisjunctionDedupes(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"A", "LOVES", "X"},
		[3]string{"A", "HATES", "X"})
	res := mustEval(t, u, ev, "(?p, LOVES, X) | (?p, HATES, X)")
	if len(res.Tuples) != 1 {
		t.Errorf("duplicate binding not removed: %v", tupleNames(u, res))
	}
}

func TestEvalUnsafeDisjunction(t *testing.T) {
	u, ev := evalSetup([3]string{"A", "R", "B"})
	_, err := ev.Eval(query.MustParse(u, "(?x, R, B) | (A, R, ?y)"))
	if err == nil {
		t.Error("unsafe disjunction accepted")
	}
}

func TestEvalExistsProjects(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"JOHN", "LIKES", "CATS"},
		[3]string{"JOHN", "LIKES", "DOGS"},
		[3]string{"MARY", "LIKES", "CATS"})
	res := mustEval(t, u, ev, "exists ?what . (?who, LIKES, ?what)")
	if len(res.Tuples) != 2 {
		t.Errorf("likers = %v", tupleNames(u, res))
	}
	if len(res.Vars) != 1 || res.Vars[0] != "who" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestEvalForallVacuous(t *testing.T) {
	u, ev := evalSetup([3]string{"A", "in", "THING"})
	// Everything in the domain is ≺ Δ — true for all entities.
	res := mustEval(t, u, ev, "forall ?x . (?x, isa, TOP)")
	if !res.True {
		t.Error("∀x (x ≺ Δ) should hold")
	}
}

func TestEvalForallFalse(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"A", "in", "THING"},
		[3]string{"B", "OTHER", "C"})
	res := mustEval(t, u, ev, "forall ?x . (?x, in, THING)")
	if res.True {
		t.Error("∀x (x ∈ THING) should fail: domain has non-THINGs")
	}
}

func TestEvalForallWithFreeVar(t *testing.T) {
	// The target loved by every lover in the domain... restrict the
	// domain by making every entity a lover of X.
	u, ev := evalSetup(
		[3]string{"A", "LOVES", "A"},
		[3]string{"A", "LOVES", "X"})
	// Domain = {A, LOVES, X}. For ∀p (p LOVES y) we need y loved by
	// A, LOVES, and X — LOVES and X love nothing, so no y.
	res := mustEval(t, u, ev, "forall ?p . (?p, LOVES, ?y)")
	if res.True {
		t.Errorf("unexpected universal lover target: %v", tupleNames(u, res))
	}
}

func TestEvalProposition(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"JOHN", "LIKES", "FELIX"},
		[3]string{"FELIX", "LIKES", "JOHN"})
	res := mustEval(t, u, ev, "(JOHN, LIKES, FELIX) & (FELIX, LIKES, JOHN)")
	if !res.True || res.Empty() {
		t.Error("true proposition misreported")
	}
	res = mustEval(t, u, ev, "(FELIX, LIKES, FELIX)")
	if res.True {
		t.Error("false proposition reported true")
	}
}

func TestEvalMathComparator(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"JOHN", "EARNS", "25000"},
		[3]string{"TOM", "EARNS", "15000"},
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"TOM", "in", "EMPLOYEE"})
	res := mustEval(t, u, ev,
		"exists ?y . (?x, in, EMPLOYEE) & (?x, EARNS, ?y) & (?y, >, 20000)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "JOHN" {
		t.Errorf("earners over 20000 = %v", got)
	}
}

func TestEvalInferredFacts(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	res := mustEval(t, u, ev, "(JOHN, EARNS, ?what)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "SALARY" {
		t.Errorf("inferred earn = %v", got)
	}
}

func TestEvalLimit(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"A", "R", "X"},
		[3]string{"B", "R", "X"},
		[3]string{"C", "R", "X"})
	ev.Limit = 2
	res := mustEval(t, u, ev, "(?p, R, X)")
	if len(res.Tuples) != 2 {
		t.Errorf("limit: %d tuples", len(res.Tuples))
	}
}

func TestEvalTuplesSorted(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"C", "R", "X"},
		[3]string{"A", "R", "X"},
		[3]string{"B", "R", "X"})
	res1 := mustEval(t, u, ev, "(?p, R, X)")
	res2 := mustEval(t, u, ev, "(?p, R, X)")
	for i := range res1.Tuples {
		if res1.Tuples[i][0] != res2.Tuples[i][0] {
			t.Fatal("evaluation not deterministic")
		}
	}
}

func TestEvalColumnHelperViaNames(t *testing.T) {
	u, ev := evalSetup([3]string{"A", "R", "B"})
	res := mustEval(t, u, ev, "(?src, R, ?dst)")
	if len(res.Vars) != 2 || res.Vars[0] != "src" || res.Vars[1] != "dst" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestEvalEmptyResultIsFailure(t *testing.T) {
	u, ev := evalSetup([3]string{"A", "R", "B"})
	res := mustEval(t, u, ev, "(?x, ABSENT-REL, ?y)")
	if !res.Empty() || res.True {
		t.Error("empty answer not reported as failure")
	}
}

func TestEvalConjunctionJoinOrder(t *testing.T) {
	// A join where naive left-to-right would enumerate everything:
	// the evaluator should still produce correct results.
	u, ev := evalSetup(
		[3]string{"S1", "in", "STUDENT"},
		[3]string{"S2", "in", "STUDENT"},
		[3]string{"S1", "TAKES", "CS"},
		[3]string{"S2", "TAKES", "MATH"},
		[3]string{"CS", "ROOM", "R1"},
		[3]string{"MATH", "ROOM", "R2"})
	res := mustEval(t, u, ev,
		"(?s, in, STUDENT) & (?s, TAKES, ?c) & (?c, ROOM, R1)")
	got := tupleNames(u, res)
	if len(got) != 1 || got[0][0] != "S1" {
		t.Errorf("join = %v", got)
	}
}

// countingMatcher counts the facts the evaluator enumerates, per
// relationship of the pattern it asked for.
type countingMatcher struct {
	query.Matcher
	facts map[sym.ID]int
}

func (m countingMatcher) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	return m.Matcher.Match(s, r, t, func(f fact.Fact) bool {
		m.facts[r]++
		return fn(f)
	})
}

// inexact hides the exactness of the wrapped matcher's estimates, the
// way a matcher that infers on demand cannot vouch for a stored 0.
type inexact struct{ query.Matcher }

func (m inexact) EstimateCount(s, r, t sym.ID) (int, bool) {
	n, _ := m.Matcher.EstimateCount(s, r, t)
	return n, false
}

// enrolments is a reified-enrolment world: n students each enrolled in
// one LAB course through an enrolment entity, and an empty class
// STUDIO.
func enrolments(n int) [][3]string {
	facts := [][3]string{{"STUDIO", "isa", "COURSE"}, {"LAB", "isa", "COURSE"}}
	for i := 0; i < n; i++ {
		e, c, s := fmt.Sprintf("E%d", i), fmt.Sprintf("C%d", i%7), fmt.Sprintf("S%d", i)
		facts = append(facts,
			[3]string{c, "in", "LAB"},
			[3]string{e, "ENROL-COURSE", c},
			[3]string{e, "ENROL-STUDENT", s})
	}
	return facts
}

// TestEmptyClassEndsConjunction pins the §5 probe's hot path as a
// count, not a time: a conjunction with an atom that provably matches
// nothing enumerates no fact of the other atoms — also once retraction
// has broadened the selective atom to a Δ wildcard, which used to
// leave the evaluator scanning every enrolment.
func TestEmptyClassEndsConjunction(t *testing.T) {
	u, ev := evalSetup(enrolments(50)...)
	cm := countingMatcher{Matcher: ev.M, facts: map[sym.ID]int{}}
	ev.M = cm
	for _, src := range []string{
		"(?c, in, STUDIO) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, S3)",
		"(?c, in, STUDIO) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, Δ)",
		"(?c, in, STUDIO) & (?e, ENROL-COURSE, ?c) & (?e, Δ, S3)",
		"(?c, in, STUDIO) & (?e, Δ, ?c) & (?e, ENROL-STUDENT, S3)",
	} {
		if res := mustEval(t, u, ev, src); res.True {
			t.Errorf("%s: answered %v", src, tupleNames(u, res))
		}
	}
	if len(cm.facts) != 0 {
		names := map[string]int{}
		for r, n := range cm.facts {
			names[u.Name(r)] = n
		}
		t.Errorf("facts enumerated for conjunctions with an empty class: %v, want none", names)
	}

	// The same query over a class with members still joins.
	res := mustEval(t, u, ev, "(?c, in, LAB) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, S3)")
	if got := tupleNames(u, res); len(got) != 1 || got[0][0] != "C3" || got[0][1] != "E3" {
		t.Errorf("lab course of S3 = %v", got)
	}
}

// TestInexactZeroNeverShortCircuits: an estimate of 0 that is only a
// bound must not end the conjunction. ≺ facts about an entity with no
// stored generalization are all virtual, so the closure counts 0 for
// (X, ≺, ?g) although (X, ≺, X) and (X, ≺, Δ) hold; and a matcher
// that vouches for nothing must give the same answers as one that
// does.
func TestInexactZeroNeverShortCircuits(t *testing.T) {
	u, ev := evalSetup(append(enrolments(10), [3]string{"X", "LIKES", "Y"})...)
	res := mustEval(t, u, ev, "(X, isa, ?g) & (X, LIKES, ?y)")
	if got := tupleNames(u, res); len(got) != 2 {
		t.Errorf("virtual generalizations of X joined with LIKES = %v, want X and Δ", got)
	}
	res = mustEval(t, u, ev, "(?e, ENROL-STUDENT, ?s) & (?s, ≠, S1) & (?e, ENROL-COURSE, C1)")
	if got := tupleNames(u, res); len(got) != 1 || got[0][1] != "S8" {
		t.Errorf("other students of C1 = %v, want E8/S8", got)
	}

	exact := ev.M
	for _, src := range []string{
		"(?c, in, STUDIO) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, S3)",
		"(?c, in, LAB) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, S3)",
		"exists ?e . (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, Δ)",
	} {
		ev.M = exact
		want := tupleNames(u, mustEval(t, u, ev, src))
		ev.M = inexact{exact}
		if got := tupleNames(u, mustEval(t, u, ev, src)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: inexact estimates answer %v, exact %v", src, got, want)
		}
	}
}

// TestEvalMetrics pins the two evaluator counters: facts enumerated
// per Eval, and conjunctions ended by an exact-zero estimate.
func TestEvalMetrics(t *testing.T) {
	u, ev := evalSetup(enrolments(20)...)
	reg := obs.NewRegistry()
	ev.SetMetrics(reg)
	mustEval(t, u, ev, "(?c, in, STUDIO) & (?e, ENROL-COURSE, ?c)")
	if got := reg.Value("lsdb_query_empty_shortcircuits_total"); got != 1 {
		t.Errorf("short-circuits = %g, want 1", got)
	}
	mustEval(t, u, ev, "(?e, ENROL-COURSE, C1)") // E1, E8, E15
	h := reg.Histogram("lsdb_query_facts_enumerated")
	if h.Count() != 2 || h.Sum() != 3 {
		t.Errorf("facts enumerated: %d evals, %d facts; want 2 evals, 3 facts", h.Count(), h.Sum())
	}
}

// TestEvalQuantifierScopes pins how bindings nest: a quantified
// variable is projected out of what its body bound, disjuncts do not
// see each other's bindings, and ∀ intersects its body's extensions.
func TestEvalQuantifierScopes(t *testing.T) {
	u, ev := evalSetup(
		[3]string{"A", "R", "B"}, [3]string{"A", "R", "C"},
		[3]string{"B", "S", "D"}, [3]string{"C", "S", "D"}, [3]string{"C", "S", "E"},
		[3]string{"D", "T", "K"}, [3]string{"E", "T", "K"})
	for src, want := range map[string][][]string{
		"exists ?y . (A, R, ?y) & (?y, S, ?z)":                   {{"D"}, {"E"}},
		"[(A, R, ?x) | (?x, S, E)] & (?x, S, D)":                 {{"B"}, {"C"}},
		"[exists ?y . (?y, S, ?x)] & [exists ?y . (?x, T, ?y)]":  {{"D"}, {"E"}},
		"(A, R, ?x) & forall ?k . [(?x, S, ?k) | (?k, ≠, E)]":    {{"C"}},
		"(?x, S, ?z) & (?x, S, ?z2) & (?z, ≠, ?z2) & (A, R, ?x)": {{"C", "D", "E"}, {"C", "E", "D"}},
	} {
		if got := tupleNames(u, mustEval(t, u, ev, src)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

// TestEvalAllocs bounds the allocations of one Eval of one-, two- and
// three-atom conjunctions, and of a conjunction with a non-atom
// conjunct, by what the evaluator allocated before rule bodies shared
// its join: 26, 103, 25 and 269 on this world.
func TestEvalAllocs(t *testing.T) {
	u, ev := evalSetup(enrolments(20)...)
	for _, c := range []struct {
		src string
		max float64
	}{
		{"(?e, ENROL-COURSE, C1)", 26},
		{"(?c, in, LAB) & (?e, ENROL-COURSE, ?c)", 103},
		{"(?c, in, LAB) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, S3)", 25},
		{"exists ?y . (?x, ENROL-COURSE, ?y) & [(?y, in, LAB) | (?y, in, STUDIO)]", 269},
	} {
		q := query.MustParse(u, c.src)
		if _, err := ev.Eval(q); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() { ev.Eval(q) }); got > c.max {
			t.Errorf("%s: %v allocations per Eval, want at most %v", c.src, got, c.max)
		}
	}
}
