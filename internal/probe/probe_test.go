package probe

import (
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

func setup(facts ...[3]string) (*fact.Universe, *Prober) {
	u := fact.NewUniverse()
	s := store.New(u)
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
	e := rules.New(s, virtual.New(u))
	ev := &query.Evaluator{
		M:      e,
		Domain: func() []sym.ID { return e.Closure().Entities() },
	}
	return u, New(e, ev)
}

func operaWorld() [][3]string {
	return [][3]string{
		{"FRESHMAN", "isa", "STUDENT"},
		{"LOVE", "isa", "LIKE"},
		{"FREE", "isa", "CHEAP"},
		{"OPERA", "isa", "MUSIC"},
		{"OPERA", "isa", "THEATER"},
		{"FRESHMAN", "LOVE", "CONCERT"},
		{"CONCERT", "COSTS", "FREE"},
		{"STUDENT", "LIKE", "LIBRARY"},
		{"LIBRARY", "COSTS", "FREE"},
		{"STUDENT", "LOVE", "COFFEE"},
		{"COFFEE", "COSTS", "CHEAP"},
	}
}

func probeQ(t *testing.T, u *fact.Universe, p *Prober, src string) *Outcome {
	t.Helper()
	out, err := p.Probe(query.MustParse(u, src))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSuccessNeedsNoRetraction(t *testing.T) {
	u, p := setup([3]string{"JOHN", "LIKES", "MARY"})
	out := probeQ(t, u, p, "(JOHN, LIKES, ?z)")
	if !out.Succeeded() || len(out.Waves) != 0 {
		t.Errorf("successful query probed anyway: %+v", out)
	}
}

func TestMinimalGensBasic(t *testing.T) {
	u, p := setup(
		[3]string{"FRESHMAN", "isa", "STUDENT"},
		[3]string{"STUDENT", "isa", "PERSON"})
	gens := p.MinimalGens(u.Entity("FRESHMAN"))
	if len(gens) != 1 || u.Name(gens[0]) != "STUDENT" {
		t.Errorf("minimal gens of FRESHMAN = %v", namesOf(u, gens))
	}
}

func TestMinimalGensSkipsTransitive(t *testing.T) {
	// PERSON is a generalization of FRESHMAN but not minimal:
	// STUDENT is strictly between.
	u, p := setup(
		[3]string{"FRESHMAN", "isa", "STUDENT"},
		[3]string{"STUDENT", "isa", "PERSON"})
	gens := p.MinimalGens(u.Entity("FRESHMAN"))
	for _, g := range gens {
		if u.Name(g) == "PERSON" {
			t.Error("transitive generalization reported minimal")
		}
	}
}

func TestMinimalGensMultiple(t *testing.T) {
	// §5.1: an entity may have several minimal generalizations.
	u, p := setup(
		[3]string{"OPERA", "isa", "MUSIC"},
		[3]string{"OPERA", "isa", "THEATER"})
	gens := namesOf(u, p.MinimalGens(u.Entity("OPERA")))
	if len(gens) != 2 {
		t.Fatalf("minimal gens of OPERA = %v", gens)
	}
}

func TestMinimalGensTopFallback(t *testing.T) {
	// §5.2: (COSTS, ≺, Δ) is a minimal generalization when COSTS has
	// no stored parent.
	u, p := setup([3]string{"X", "COSTS", "FREE"})
	gens := p.MinimalGens(u.Entity("COSTS"))
	if len(gens) != 1 || gens[0] != u.Top {
		t.Errorf("parentless entity: gens = %v", namesOf(u, gens))
	}
}

func TestMinimalGensUnknownEntity(t *testing.T) {
	// §5.2: a misspelled entity "will never be replaced".
	u, p := setup([3]string{"A", "R", "B"})
	if gens := p.MinimalGens(u.Entity("LOWES")); len(gens) != 0 {
		t.Errorf("unknown entity has gens %v", namesOf(u, gens))
	}
}

func TestMinimalGensNumbersGeneralizeToTop(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	gens := p.MinimalGens(u.Entity("20000"))
	if len(gens) != 1 || gens[0] != u.Top {
		t.Errorf("number gens = %v", namesOf(u, gens))
	}
}

func TestMinimalGensExcludesSynonyms(t *testing.T) {
	u, p := setup(
		[3]string{"CAR", "syn", "AUTO"},
		[3]string{"CAR", "isa", "VEHICLE"})
	gens := namesOf(u, p.MinimalGens(u.Entity("CAR")))
	for _, g := range gens {
		if g == "AUTO" {
			t.Errorf("synonym reported as generalization: %v", gens)
		}
	}
	if len(gens) != 1 || gens[0] != "VEHICLE" {
		t.Errorf("gens = %v", gens)
	}
}

func TestMinimalGensOfTop(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	if gens := p.MinimalGens(u.Top); len(gens) != 0 {
		t.Errorf("Δ has generalizations %v", namesOf(u, gens))
	}
}

func TestPaperOperaRetractionSet(t *testing.T) {
	// §5.1: Q(z) = (STUDENT, LOVE, z) ∧ (z, COSTS, FREE) — wait, the
	// §5.1 example is (z, LOVES, OPERA); check its three minimally
	// broader queries.
	u, p := setup(operaWorld()...)
	q := query.MustParse(u, "(?z, LOVE, OPERA)")
	rs := p.retractions(q, substitutes{})
	var descs []string
	for _, r := range rs {
		descs = append(descs, r.Describe(u))
	}
	joined := strings.Join(descs, " | ")
	for _, want := range []string{
		"LIKE instead of LOVE",
		"MUSIC instead of OPERA",
		"THEATER instead of OPERA",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("retraction set missing %q: %v", want, descs)
		}
	}
	if len(rs) != 3 {
		t.Errorf("retraction set size = %d, want 3", len(rs))
	}
}

func TestPaperSection52Probe(t *testing.T) {
	// Q(z) = (STUDENT, LOVE, z) & (z, COSTS, FREE) fails; the paper's
	// menu reports success with FRESHMAN instead of STUDENT and with
	// CHEAP instead of FREE.
	u, p := setup(operaWorld()...)
	out := probeQ(t, u, p, "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)")
	if out.Succeeded() {
		t.Fatal("original query should fail")
	}
	if len(out.Waves) == 0 {
		t.Fatal("no waves")
	}
	var succ []string
	for _, e := range out.Waves[0].Successes() {
		succ = append(succ, e.Changes[0].Describe(u))
	}
	joined := strings.Join(succ, " | ")
	if !strings.Contains(joined, "FRESHMAN instead of STUDENT") {
		t.Errorf("missing FRESHMAN success: %v", succ)
	}
	if !strings.Contains(joined, "CHEAP instead of FREE") {
		t.Errorf("missing CHEAP success: %v", succ)
	}
	menu := out.Menu(u)
	if !strings.Contains(menu, "Query failed. Retrying") ||
		!strings.Contains(menu, "You may select") {
		t.Errorf("menu format:\n%s", menu)
	}
}

func TestRetractionResultsAreSupersets(t *testing.T) {
	// §5.1: if Q succeeds then every broader Q' succeeds, and
	// {Q} ⊆ {Q'}. Verify on a query that succeeds.
	u, p := setup(operaWorld()...)
	q := query.MustParse(u, "(FRESHMAN, LOVE, ?z)")
	base, err := p.Eval.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if !base.True {
		t.Fatal("base query should succeed")
	}
	for _, r := range p.retractions(q, substitutes{}) {
		rq := apply(q, r)
		res, err := p.Eval.Eval(rq)
		if err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		for _, tp := range res.Tuples {
			have[u.Name(tp[0])] = true
		}
		for _, tp := range base.Tuples {
			if !have[u.Name(tp[0])] {
				t.Errorf("broader query %s lost tuple %s", rq, u.Name(tp[0]))
			}
		}
	}
}

func TestCriticalFailure(t *testing.T) {
	// Original fails but every wave-1 retraction succeeds: the §5.2
	// "critical point".
	u, p := setup(
		[3]string{"FRESHMAN", "isa", "STUDENT"},
		[3]string{"FRESHMAN", "HAS", "LOCKER"},
		[3]string{"STUDENT", "OWNS", "LOCKER"},
		[3]string{"HAS", "isa", "OWNS"})
	// (STUDENT, HAS, LOCKER) fails; retractions:
	//   FRESHMAN→? no: STUDENT's minimal gen is Δ... keep it simple:
	//   (STUDENT, HAS, LOCKER): STUDENT→Δ fails? (Δ, HAS, LOCKER)
	//   matches FRESHMAN HAS LOCKER. HAS→OWNS: (STUDENT, OWNS,
	//   LOCKER) succeeds. LOCKER→Δ: (STUDENT, HAS, Δ) fails?
	//   STUDENT has no HAS facts... it matches nothing. Hmm — not all
	//   succeed; craft directly instead:
	out := probeQ(t, u, p, "(STUDENT, HAS, LOCKER)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	if len(out.Waves) == 0 {
		t.Fatal("no waves")
	}
	// At least the HAS→OWNS retraction succeeds.
	found := false
	for _, e := range out.Waves[len(out.Waves)-1].Successes() {
		for _, c := range e.Changes {
			if u.Name(c.To) == "OWNS" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("HAS→OWNS success missing:\n%s", out.Menu(u))
	}
}

func TestCriticalFlagAllSucceed(t *testing.T) {
	// A query whose every minimal broadening succeeds while the
	// conjunction fails: the §5.2 "critical point". (A, LOVES, B)
	// where A loves only B2 and A2 loves B, with A2 ≺ A and B ≺ B2.
	u, p := setup(
		[3]string{"A2", "isa", "A"},
		[3]string{"B", "isa", "B2"},
		[3]string{"A2", "LOVES", "B"},
		[3]string{"A", "LOVES", "B2"})
	// Exclude inheritance so (A, LOVES, B) really fails.
	p.Eng.Exclude(rules.GenSource)
	p.Eng.Exclude(rules.GenTarget)
	out := probeQ(t, u, p, "(A, LOVES, B)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	if len(out.Waves) == 0 {
		t.Fatal("no waves")
	}
	// Source A → spec A2: (A2, LOVES, B) succeeds.
	// Target B → gen B2: (A, LOVES, B2) succeeds.
	// Rel LOVES → Δ: (A, Δ, B) fails (A relates only to B2).
	// So not all wave-1 entries succeed; Critical must be false,
	// but both substitution successes must be reported.
	if out.Critical {
		t.Error("Critical reported though the Δ-relationship probe fails")
	}
	succ := out.Waves[0].Successes()
	if len(succ) != 2 {
		t.Errorf("wave-1 successes = %d, want 2:\n%s", len(succ), out.Menu(u))
	}
}

func TestCriticalTrueWhenAllBroaderSucceed(t *testing.T) {
	u, p := setup(
		[3]string{"A2", "isa", "A"},
		[3]string{"B", "isa", "B2"},
		[3]string{"A2", "LOVES", "B"},
		[3]string{"A", "LOVES", "B2"},
		[3]string{"A", "ADORES", "B"},
		[3]string{"LOVES", "isa", "LIKES"},
		[3]string{"ADORES", "isa", "LIKES"})
	p.Eng.Exclude(rules.GenSource)
	p.Eng.Exclude(rules.GenTarget)
	p.Eng.Exclude(rules.GenRel)
	// (A, LOVES, B) fails. Broadenings: A→A2 ok, B→B2 ok,
	// LOVES→LIKES ok (A ADORES B would imply A LIKES B, but GenRel
	// is off... store it directly instead).
	p.Eng.Base().Insert(u.NewFact("A", "LIKES", "B"))
	out := probeQ(t, u, p, "(A, LOVES, B)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	if !out.Critical {
		t.Errorf("critical point not detected:\n%s", out.Menu(u))
	}
}

func TestMultiWaveRetraction(t *testing.T) {
	// Success requires two generalization steps in the target
	// position: X ≺ Y ≺ Z and the only fact is about Z.
	u, p := setup(
		[3]string{"X", "isa", "Y"},
		[3]string{"Y", "isa", "Z"},
		[3]string{"F", "HAS", "Z"})
	// (F, HAS, X): wave 1 fails; wave 2 succeeds two levels up.
	out := probeQ(t, u, p, "(F, HAS, X)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	if len(out.Waves) != 2 {
		t.Fatalf("waves = %d, want 2", len(out.Waves))
	}
	succ := out.Waves[1].Successes()
	if len(succ) == 0 {
		t.Fatal("no wave-2 success")
	}
	foundChain := false
	for _, e := range succ {
		if len(e.Changes) == 2 {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("no 2-step change chain:\n%s", out.Menu(u))
	}
}

func TestUnknownEntityDiagnosis(t *testing.T) {
	u, p := setup([3]string{"JOHN", "LOVES", "MARY"})
	out := probeQ(t, u, p, "(JOHN, LOWES, ?z)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	found := false
	for _, e := range out.Unknown {
		if u.Name(e) == "LOWES" {
			found = true
		}
	}
	if !found {
		t.Errorf("LOWES not diagnosed as unknown: %v", namesOf(u, out.Unknown))
	}
	menu := out.Menu(u)
	if !strings.Contains(menu, "no such database entities") {
		t.Errorf("menu missing diagnosis:\n%s", menu)
	}
}

func TestDegenerateTemplateDeleted(t *testing.T) {
	// A template of only variables and Δ is dropped rather than
	// generalized further (§5.2).
	u, p := setup([3]string{"JOHN", "LIKES", "MARY"})
	q := query.MustParse(u, "(?x, Δ, ?y) & (JOHN, HATES, ?y)")
	rs := p.retractions(q, substitutes{})
	foundDelete := false
	for _, r := range rs {
		if r.Deleted {
			foundDelete = true
			if n := len(apply(q, r).Atoms()); n != 1 {
				t.Errorf("deletion left %d atoms", n)
			}
		}
	}
	if !foundDelete {
		t.Error("degenerate template not deleted")
	}
}

func TestWholeQueryNeverDeleted(t *testing.T) {
	u, p := setup([3]string{"JOHN", "LIKES", "MARY"})
	q := query.MustParse(u, "(?x, Δ, ?y)")
	if rs := p.retractions(q, substitutes{}); len(rs) != 0 {
		t.Errorf("the only template of a query has retractions %+v", rs)
	}
}

func TestExhaustion(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	p.MaxWaves = 3
	out := probeQ(t, u, p, "(NOPE1, NOPE2, NOPE3)")
	if out.Succeeded() {
		t.Fatal("should fail")
	}
	if !out.Exhausted {
		t.Error("exhaustion not reported")
	}
}

func TestSpecialEntitiesNotGeneralized(t *testing.T) {
	u, p := setup([3]string{"JOHN", "in", "EMPLOYEE"})
	q := query.MustParse(u, "(?x, in, QUARTERBACK)")
	for _, r := range p.retractions(q, substitutes{}) {
		if !r.Deleted && r.From == u.Member {
			t.Error("∈ was generalized")
		}
	}
}

func TestProbeMenuSuccessCase(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	out := probeQ(t, u, p, "(A, R, ?x)")
	if !strings.Contains(out.Menu(u), "Query succeeded") {
		t.Errorf("menu:\n%s", out.Menu(u))
	}
}

func namesOf(u *fact.Universe, ids []sym.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.Name(id)
	}
	return out
}

func TestOutcomeSelect(t *testing.T) {
	u, p := setup(operaWorld()...)
	out := probeQ(t, u, p, "(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)")
	succ := out.Successes()
	if len(succ) < 2 {
		t.Fatalf("successes = %d", len(succ))
	}
	e, ok := out.Select(1)
	if !ok || !e.Succeeded() {
		t.Error("Select(1) failed")
	}
	if _, ok := out.Select(0); ok {
		t.Error("Select(0) accepted")
	}
	if _, ok := out.Select(len(succ) + 1); ok {
		t.Error("Select past the end accepted")
	}
	// The menu numbering matches Select.
	menu := out.Menu(u)
	first := e.Changes[0].Describe(u)
	if !strings.Contains(menu, "1. Success with "+first) {
		t.Errorf("menu numbering mismatch: want item 1 = %q in\n%s", first, menu)
	}
}

func TestProbeDefaultsApplied(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	p.MaxWaves = 0
	p.MaxPerWave = 0
	out := probeQ(t, u, p, "(A, NOPE, B)")
	if out.Succeeded() {
		t.Error("should fail")
	}
	// Defaults restored internally; the probe must still terminate.
	if !out.Exhausted && len(out.Waves) == 0 {
		t.Error("no progress with zeroed limits")
	}
}

func TestRemoveAtomInsideDisjunction(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	// A degenerate template inside a disjunction: deleting it keeps
	// the other branch.
	q := query.MustParse(u, "[(?x, Δ, ?y) | (A, R, ?y)] & (A, S, ?y)")
	foundDelete := false
	for _, r := range p.retractions(q, substitutes{}) {
		if r.Deleted {
			foundDelete = true
			if got := len(apply(q, r).Atoms()); got != 2 {
				t.Errorf("atoms after deletion = %d, want 2", got)
			}
		}
	}
	if !foundDelete {
		t.Error("degenerate disjunct not deleted")
	}
}

func TestRemoveAtomUnderQuantifier(t *testing.T) {
	u, p := setup([3]string{"A", "R", "B"})
	q := query.MustParse(u, "[exists ?z . (?z, Δ, ?w)] & (A, R, ?w)")
	foundDelete := false
	for _, r := range p.retractions(q, substitutes{}) {
		if r.Deleted {
			foundDelete = true
			// The quantifier over the deleted body disappears with it.
			if rq := apply(q, r).String(); strings.Contains(rq, "exists") {
				t.Errorf("dangling quantifier: %s", rq)
			}
		}
	}
	if !foundDelete {
		t.Error("degenerate quantified template not deleted")
	}
}

func TestProbeStopsAtFirstSuccessfulWave(t *testing.T) {
	// Once a wave has successes, deeper waves are not attempted
	// (§5.2: "this process continues, until some retrieval is
	// successful").
	u, p := setup(
		[3]string{"X", "isa", "Y"},
		[3]string{"Y", "isa", "Z"},
		[3]string{"F", "HAS", "Y"}, // success available at wave 1
		[3]string{"F", "HAS", "Z"})
	out := probeQ(t, u, p, "(F, HAS, X)")
	if len(out.Waves) != 1 {
		t.Errorf("waves = %d, want 1", len(out.Waves))
	}
}

func TestProbeDeduplicatesAcrossWaves(t *testing.T) {
	// Two different generalization paths can produce the same query;
	// it must be attempted once.
	u, p := setup(
		[3]string{"A", "isa", "C"},
		[3]string{"B", "isa", "C"},
		[3]string{"Q", "R", "A"},
		[3]string{"Q", "R", "B"})
	out := probeQ(t, u, p, "(NOPE, R, A)")
	seen := map[string]int{}
	for _, w := range out.Waves {
		for _, e := range w.Entries {
			seen[e.Q.String()]++
		}
	}
	for q, n := range seen {
		if n > 1 {
			t.Errorf("query %q attempted %d times", q, n)
		}
	}
}

// TestKeyMatchesRenderedText walks several waves of retraction sets —
// replacements, deletions inside conjunctions, disjunctions and
// quantifiers — and checks the structural key against what it stands
// in for: the key of (query, change) is the key of the built query,
// and two queries have the same key exactly when they render the same.
func TestKeyMatchesRenderedText(t *testing.T) {
	u, p := setup(append(operaWorld(),
		[3]string{"A", "isa", "C"}, [3]string{"B", "isa", "C"})...)
	byKey := map[string]string{}
	byText := map[string]string{}
	for _, src := range []string{
		"(STUDENT, LOVE, ?z) & (?z, COSTS, FREE)",
		"[(?x, Δ, ?y) | (A, R, ?y)] & (A, S, ?y) & (B, S, ?y)",
		"[exists ?z . (?z, Δ, ?w)] & (A, R, ?w) & [(A, R, ?w) | (B, R, ?w)]",
		"forall ?k . [(FRESHMAN, LOVE, ?k) | (?k, ≠, OPERA)] & (A, R, ?v)",
		"(A, R, ?w) & [(A, R, ?w) & (B, R, ?w)]",
	} {
		frontier := []*query.Query{query.MustParse(u, src)}
		for level := 0; level < 3; level++ {
			var next []*query.Query
			for _, q := range frontier {
				for _, c := range p.retractions(q, substitutes{}) {
					built := apply(q, c)
					key := string(appendKey(nil, q.Root, &c))
					if own := string(appendKey(nil, built.Root, nil)); key != own {
						t.Fatalf("%s with %+v: key %q, key of the built query %q", q, c, key, own)
					}
					text := built.String()
					if prev, ok := byKey[key]; ok && prev != text {
						t.Fatalf("one key for %q and %q", prev, text)
					}
					if prev, ok := byText[text]; ok && prev != key {
						t.Fatalf("two keys for %q", text)
					}
					byKey[key], byText[text] = text, key
					next = append(next, built)
				}
			}
			frontier = next
		}
	}
	if len(byKey) < 50 {
		t.Fatalf("only %d distinct retraction queries walked", len(byKey))
	}
}

// TestWaveCapEndsTheWave: a wave that reaches MaxPerWave stops there
// and says so. It used to keep scanning the frontier, marking one
// more retraction per frontier node as seen without ever trying it.
func TestWaveCapEndsTheWave(t *testing.T) {
	u, p := setup(operaWorld()...)
	src := "(STUDENT, LOVE, OPERA) & (OPERA, COSTS, FREE)"
	full := probeQ(t, u, p, src)
	if full.Truncated {
		t.Fatal("uncapped probe reports truncation")
	}
	if n := len(full.Waves[0].Entries); n < 4 {
		t.Fatalf("first wave has %d entries, too few to cap", n)
	}
	p.MaxPerWave = 2
	p.MaxWaves = 2
	capped := probeQ(t, u, p, src)
	if !capped.Truncated {
		t.Error("capped probe does not report truncation")
	}
	for i, w := range capped.Waves {
		if len(w.Entries) > 2 {
			t.Errorf("wave %d has %d entries, cap 2", i+1, len(w.Entries))
		}
	}
	// The capped first wave is the head of the uncapped one.
	for i, e := range capped.Waves[0].Entries {
		if got, want := e.Q.String(), full.Waves[0].Entries[i].Q.String(); got != want {
			t.Errorf("capped wave entry %d = %s, want %s", i, got, want)
		}
	}
	if len(capped.Successes()) != 0 {
		t.Fatalf("capped probe succeeded: %s", capped.Menu(u))
	}
	if !capped.Exhausted || !strings.Contains(capped.Menu(u), "not every broader query was tried") {
		t.Errorf("gave up without saying the search was capped:\n%s", capped.Menu(u))
	}
}
