package rules

import (
	"fmt"
	"testing"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

func newEngine() (*fact.Universe, *store.Store, *Engine) {
	u := fact.NewUniverse()
	s := store.New(u)
	return u, s, New(s, virtual.New(u))
}

func ins(u *fact.Universe, s *store.Store, facts ...[3]string) {
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
}

func hasAll(t *testing.T, u *fact.Universe, e *Engine, facts ...[3]string) {
	t.Helper()
	for _, f := range facts {
		if !e.Has(u.NewFact(f[0], f[1], f[2])) {
			t.Errorf("missing from closure: (%s, %s, %s)", f[0], f[1], f[2])
		}
	}
}

func hasNone(t *testing.T, u *fact.Universe, e *Engine, facts ...[3]string) {
	t.Helper()
	for _, f := range facts {
		if e.Has(u.NewFact(f[0], f[1], f[2])) {
			t.Errorf("unexpectedly in closure: (%s, %s, %s)", f[0], f[1], f[2])
		}
	}
}

func TestGenSourceRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"EMPLOYEE", "WORKS-FOR", "DEPARTMENT"},
		[3]string{"MANAGER", "isa", "EMPLOYEE"})
	hasAll(t, u, e, [3]string{"MANAGER", "WORKS-FOR", "DEPARTMENT"})
}

func TestGenTargetRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"EMPLOYEE", "EARNS", "SALARY"},
		[3]string{"SALARY", "isa", "COMPENSATION"})
	hasAll(t, u, e, [3]string{"EMPLOYEE", "EARNS", "COMPENSATION"})
}

func TestGenRelRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "WORKS-FOR", "SHIPPING"},
		[3]string{"WORKS-FOR", "isa", "IS-PAID-BY"})
	hasAll(t, u, e, [3]string{"JOHN", "IS-PAID-BY", "SHIPPING"})
}

func TestMemberSourceRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "WORKS-FOR", "DEPARTMENT"})
	hasAll(t, u, e, [3]string{"JOHN", "WORKS-FOR", "DEPARTMENT"})
}

func TestMemberTargetRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"TOM", "WORKS-FOR", "SHIPPING"},
		[3]string{"SHIPPING", "in", "DEPARTMENT"})
	hasAll(t, u, e, [3]string{"TOM", "WORKS-FOR", "DEPARTMENT"})
}

func TestGenTransitivity(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "isa", "PERSON"},
		[3]string{"PERSON", "isa", "AGENT"})
	hasAll(t, u, e,
		[3]string{"MANAGER", "isa", "PERSON"},
		[3]string{"MANAGER", "isa", "AGENT"},
		[3]string{"EMPLOYEE", "isa", "AGENT"})
}

func TestMemberUp(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "isa", "PERSON"})
	hasAll(t, u, e, [3]string{"JOHN", "in", "PERSON"})
}

func TestMembershipNotTransitive(t *testing.T) {
	// §2.3: ISBN-914894 is an instance of BOOK and has instances
	// (copies); the copies are not instances of BOOK. Membership is a
	// class relationship, so it does not inherit through ∈ chains.
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"ISBN-914894", "in", "BOOK"},
		[3]string{"ISBN-914894-COPY1", "in", "ISBN-914894"})
	hasNone(t, u, e, [3]string{"ISBN-914894-COPY1", "in", "BOOK"})
}

func TestSynonymDefinition(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"SALARY", "syn", "WAGE"})
	hasAll(t, u, e,
		[3]string{"SALARY", "isa", "WAGE"},
		[3]string{"WAGE", "isa", "SALARY"},
		[3]string{"WAGE", "syn", "SALARY"})
}

func TestSynonymFromTwoWayGen(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"CAR", "isa", "AUTOMOBILE"},
		[3]string{"AUTOMOBILE", "isa", "CAR"})
	hasAll(t, u, e, [3]string{"CAR", "syn", "AUTOMOBILE"})
}

func TestSynonymSubstitution(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "EARNS", "$25000"},
		[3]string{"JOHN", "syn", "JOHNNY"},
		[3]string{"EARNS", "syn", "MAKES"},
		[3]string{"$25000", "syn", "25K"})
	hasAll(t, u, e,
		[3]string{"JOHNNY", "EARNS", "$25000"},
		[3]string{"JOHN", "MAKES", "$25000"},
		[3]string{"JOHN", "EARNS", "25K"},
		[3]string{"JOHNNY", "MAKES", "25K"})
}

func TestSynonymSymmetryTransitivity(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"SALARY", "syn", "WAGE"},
		[3]string{"SALARY", "syn", "PAY"})
	hasAll(t, u, e,
		[3]string{"WAGE", "syn", "PAY"},
		[3]string{"PAY", "syn", "WAGE"})
}

func TestInversion(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"INSTRUCTOR", "TEACHES", "COURSE"},
		[3]string{"TEACHES", "inv", "TAUGHT-BY"})
	hasAll(t, u, e,
		[3]string{"COURSE", "TAUGHT-BY", "INSTRUCTOR"},
		[3]string{"TAUGHT-BY", "inv", "TEACHES"})
}

func TestInversionBothDirections(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"CS100", "TAUGHT-BY", "HARRY"},
		[3]string{"TEACHES", "inv", "TAUGHT-BY"})
	hasAll(t, u, e, [3]string{"HARRY", "TEACHES", "CS100"})
}

func TestExcludeDisablesRule(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	hasAll(t, u, e, [3]string{"JOHN", "EARNS", "SALARY"})
	e.Exclude(MemberSource)
	hasNone(t, u, e, [3]string{"JOHN", "EARNS", "SALARY"})
	e.Include(MemberSource)
	hasAll(t, u, e, [3]string{"JOHN", "EARNS", "SALARY"})
}

func TestIncludedReporting(t *testing.T) {
	_, _, e := newEngine()
	for _, r := range StdRules() {
		if !e.Included(r) {
			t.Errorf("rule %v not enabled by default", r)
		}
	}
	e.Exclude(Inversion)
	if e.Included(Inversion) {
		t.Error("Exclude did not take")
	}
}

func TestIndividualClassification(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"TOTAL-NUMBER", "in", "@class"})
	if e.Individual(u.Entity("TOTAL-NUMBER")) {
		t.Error("declared class relationship reported individual")
	}
	if !e.Individual(u.Entity("EARNS")) {
		t.Error("ordinary relationship not individual")
	}
	for _, id := range []sym.ID{u.Gen, u.Member, u.Syn, u.Inv, u.Contra, u.Eq, u.Lt} {
		if e.Individual(id) {
			t.Errorf("special %s reported individual", u.Name(id))
		}
	}
}

func TestClassRelationshipNotInherited(t *testing.T) {
	// §2.2: TOTAL-NUMBER characterizes the aggregate, so members must
	// not inherit it.
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"TOTAL-NUMBER", "in", "@class"},
		[3]string{"EMPLOYEE", "TOTAL-NUMBER", "180"},
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	hasAll(t, u, e, [3]string{"JOHN", "EARNS", "SALARY"})
	hasNone(t, u, e, [3]string{"JOHN", "TOTAL-NUMBER", "180"})
}

func TestUserRule(t *testing.T) {
	u, s, e := newEngine()
	r, err := ParseRule(u, "grandparent", Inference,
		"(?x, PARENT-OF, ?y) & (?y, PARENT-OF, ?z) => (?x, GRANDPARENT-OF, ?z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
	ins(u, s,
		[3]string{"LEOPOLD", "PARENT-OF", "MOZART"},
		[3]string{"MOZART", "PARENT-OF", "KARL"})
	hasAll(t, u, e, [3]string{"LEOPOLD", "GRANDPARENT-OF", "KARL"})
}

func TestUserRuleWithMathGuard(t *testing.T) {
	u, s, e := newEngine()
	r, err := ParseRule(u, "high-earner", Inference,
		"(?x, EARNS, ?y) & (?y, >, 50000) => (?x, in, HIGH-EARNER)")
	if err != nil {
		t.Fatal(err)
	}
	e.AddRule(r)
	ins(u, s,
		[3]string{"JOHN", "EARNS", "60000"},
		[3]string{"TOM", "EARNS", "30000"})
	hasAll(t, u, e, [3]string{"JOHN", "in", "HIGH-EARNER"})
	hasNone(t, u, e, [3]string{"TOM", "in", "HIGH-EARNER"})
}

func TestUserRuleChained(t *testing.T) {
	// Derived facts must feed other rules (repeated application, §2.6).
	u, s, e := newEngine()
	r1, _ := ParseRule(u, "r1", Inference, "(?x, A, ?y) => (?x, B, ?y)")
	r2, _ := ParseRule(u, "r2", Inference, "(?x, B, ?y) => (?x, C, ?y)")
	e.AddRule(r1)
	e.AddRule(r2)
	ins(u, s, [3]string{"P", "A", "Q"})
	hasAll(t, u, e, [3]string{"P", "C", "Q"})
}

func TestRemoveRule(t *testing.T) {
	u, s, e := newEngine()
	r, _ := ParseRule(u, "r", Inference, "(?x, A, ?y) => (?x, B, ?y)")
	e.AddRule(r)
	ins(u, s, [3]string{"P", "A", "Q"})
	hasAll(t, u, e, [3]string{"P", "B", "Q"})
	if !e.RemoveRule("r") {
		t.Fatal("RemoveRule returned false")
	}
	hasNone(t, u, e, [3]string{"P", "B", "Q"})
	if e.RemoveRule("r") {
		t.Error("second RemoveRule returned true")
	}
}

func TestRuleReplacedByName(t *testing.T) {
	u, s, e := newEngine()
	r1, _ := ParseRule(u, "r", Inference, "(?x, A, ?y) => (?x, B, ?y)")
	r2, _ := ParseRule(u, "r", Inference, "(?x, A, ?y) => (?x, C, ?y)")
	e.AddRule(r1)
	e.AddRule(r2)
	ins(u, s, [3]string{"P", "A", "Q"})
	hasNone(t, u, e, [3]string{"P", "B", "Q"})
	hasAll(t, u, e, [3]string{"P", "C", "Q"})
	if len(e.Rules()) != 1 {
		t.Errorf("Rules() = %d entries", len(e.Rules()))
	}
}

func TestClosureCaching(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"A", "R", "B"})
	c1 := e.Closure()
	c2 := e.Closure()
	if c1 != c2 {
		t.Error("closure not cached across calls")
	}
	// A pure insertion is folded in incrementally (same store,
	// updated contents).
	s.Insert(u.NewFact("C", "R", "D"))
	c3 := e.Closure()
	if !c3.Has(u.NewFact("C", "R", "D")) {
		t.Error("closure not updated after insert")
	}
	// A deletion is non-monotonic and forces a fresh store.
	s.Delete(u.NewFact("C", "R", "D"))
	c4 := e.Closure()
	if c4 == c3 {
		t.Error("closure cache not rebuilt after delete")
	}
	if c4.Has(u.NewFact("C", "R", "D")) {
		t.Error("deleted fact survived in closure")
	}
	e.Exclude(GenSource)
	c5 := e.Closure()
	if c5 == c4 {
		t.Error("closure cache not invalidated by rule toggle")
	}
}

func TestIncrementalClosureEqualsFull(t *testing.T) {
	// Build the same database twice: once with insertions interleaved
	// with closure queries (exercising the incremental path), once in
	// one shot. The final closures must be identical.
	facts := [][3]string{
		{"EMPLOYEE", "isa", "PERSON"},
		{"JOHN", "in", "EMPLOYEE"},
		{"EMPLOYEE", "EARNS", "SALARY"},
		{"SALARY", "isa", "COMPENSATION"},
		{"EARNS", "inv", "EARNED-BY"},
		{"MANAGER", "isa", "EMPLOYEE"},
		{"BOB", "in", "MANAGER"},
		{"JOHN", "syn", "JOHNNY"},
	}
	u1, s1, e1 := newEngine()
	for _, f := range facts {
		s1.Insert(u1.NewFact(f[0], f[1], f[2]))
		e1.Closure() // force incremental application per insert
	}
	u2, s2, e2 := newEngine()
	for _, f := range facts {
		s2.Insert(u2.NewFact(f[0], f[1], f[2]))
	}
	c1, c2 := e1.Closure(), e2.Closure()
	if c1.Len() != c2.Len() {
		t.Fatalf("incremental %d facts, full %d", c1.Len(), c2.Len())
	}
	for _, f := range c2.Facts() {
		g := u1.NewFact(u2.Name(f.S), u2.Name(f.R), u2.Name(f.T))
		if !c1.Has(g) {
			t.Errorf("incremental closure missing %s", u2.FormatFact(f))
		}
	}
}

func TestIncrementalExplainStillWorks(t *testing.T) {
	u, s, e := newEngine()
	s.Insert(u.NewFact("JOHN", "∈", "EMPLOYEE"))
	e.Closure()
	s.Insert(u.NewFact("EMPLOYEE", "EARNS", "SALARY"))
	if got := e.Explain(u.NewFact("JOHN", "EARNS", "SALARY")); got != "member-source" {
		t.Errorf("Explain after incremental update = %q", got)
	}
}

func TestExplain(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	if got := e.Explain(u.NewFact("JOHN", "in", "EMPLOYEE")); got != "stored" {
		t.Errorf("Explain(stored) = %q", got)
	}
	if got := e.Explain(u.NewFact("JOHN", "EARNS", "SALARY")); got != "member-source" {
		t.Errorf("Explain(derived) = %q", got)
	}
	if got := e.Explain(u.NewFact("X", "Y", "Z")); got != "" {
		t.Errorf("Explain(absent) = %q", got)
	}
}

func TestMatchTopWildcard(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"STUDENT", "LOVE", "CONCERT"})
	// (STUDENT, Δ, CONCERT) must match: every relationship
	// generalizes to Δ (§5.2 uses this during retraction).
	if !e.Has(fact.Fact{S: u.Entity("STUDENT"), R: u.Top, T: u.Entity("CONCERT")}) {
		t.Error("Δ relationship did not match")
	}
	// And (STUDENT, LOVE, Δ) matches anything STUDENT loves.
	if !e.Has(fact.Fact{S: u.Entity("STUDENT"), R: u.Entity("LOVE"), T: u.Top}) {
		t.Error("Δ target did not match")
	}
	if e.Has(fact.Fact{S: u.Entity("NOBODY"), R: u.Top, T: u.Top}) {
		t.Error("Δ matched facts for an entity with none")
	}
}

func TestMatchDedupAcrossVirtual(t *testing.T) {
	u, s, e := newEngine()
	// A stored fact that duplicates a virtual one.
	s.Insert(fact.Fact{S: u.Entity("A"), R: u.Gen, T: u.Entity("A")})
	n := 0
	e.Match(u.Entity("A"), u.Gen, u.Entity("A"), func(fact.Fact) bool {
		n++
		return true
	})
	if n != 1 {
		t.Errorf("(A,≺,A) matched %d times, want 1 (dedup)", n)
	}
}

func TestClosureSoundness(t *testing.T) {
	// Every stored fact is in the closure (§2.6: "every closure of P
	// includes P itself").
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "R", "B"},
		[3]string{"B", "isa", "C"},
		[3]string{"M", "in", "A"})
	for _, f := range s.Facts() {
		if !e.Closure().Has(f) {
			t.Errorf("stored fact %s missing from closure", u.FormatFact(f))
		}
	}
}

func TestClosureIdempotent(t *testing.T) {
	// Applying the engine to its own closure must not grow it.
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "isa", "PERSON"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"},
		[3]string{"SALARY", "isa", "COMPENSATION"},
		[3]string{"EARNS", "inv", "EARNED-BY"},
		[3]string{"JOHN", "syn", "JOHNNY"})
	c := e.Closure()
	s2 := store.New(u)
	for _, f := range c.Facts() {
		s2.Insert(f)
	}
	e2 := New(s2, virtual.New(u))
	if got, want := e2.Closure().Len(), c.Len(); got != want {
		// Report which facts appeared.
		for _, f := range e2.Closure().Facts() {
			if !c.Has(f) {
				t.Logf("new fact: %s (%s)", u.FormatFact(f), e2.Explain(f))
			}
		}
		t.Errorf("closure not idempotent: %d -> %d", want, got)
	}
}

func TestEngineString(t *testing.T) {
	_, _, e := newEngine()
	if e.String() == "" {
		t.Error("empty String()")
	}
}

// TestEstimateCountSeesWhatMatchSees sweeps every pattern over a small
// world's entities plus Δ, ∇ and the wildcard: an exact estimate is
// the number of facts Match yields, and an estimate for a pattern with
// a Δ/∇ position and a plain relationship is an upper bound (it used
// to look Δ up literally and say 0 for patterns Match answers).
func TestEstimateCountSeesWhatMatchSees(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"FRESHMAN", "isa", "STUDENT"},
		[3]string{"ZOE", "in", "FRESHMAN"},
		[3]string{"E1", "ENROL-STUDENT", "ZOE"},
		[3]string{"E1", "ENROL-COURSE", "CS-101"},
		[3]string{"E2", "ENROL-STUDENT", "ZOE"},
		[3]string{"ENROL-STUDENT", "isa", "ENROLS"},
		[3]string{"ZOE", "AGE", "19"})
	ids := []sym.ID{sym.None, u.Top, u.Bottom, u.Gen, u.Member, u.Neq, u.Lt}
	for _, name := range []string{"ZOE", "E1", "FRESHMAN", "STUDENT", "ENROL-STUDENT", "ENROLS", "AGE", "19", "ABSENT"} {
		ids = append(ids, u.Entity(name))
	}
	exacts := 0
	for _, src := range ids {
		for _, rel := range ids {
			for _, tgt := range ids {
				yielded := 0
				e.Match(src, rel, tgt, func(fact.Fact) bool { yielded++; return true })
				n, exact := e.EstimateCount(src, rel, tgt)
				pat := func() string {
					name := func(id sym.ID) string {
						if id == sym.None {
							return "?"
						}
						return u.Name(id)
					}
					return "(" + name(src) + ", " + name(rel) + ", " + name(tgt) + ")"
				}
				if exact {
					exacts++
					if n != yielded {
						t.Errorf("%s: exact estimate %d, Match yields %d", pat(), n, yielded)
					}
				}
				plainRel := rel != sym.None && e.unwild(rel) == rel && !e.virtualRel(rel)
				if plainRel && n < yielded {
					t.Errorf("%s: estimate %d below the %d facts Match yields", pat(), n, yielded)
				}
			}
		}
	}
	if exacts == 0 {
		t.Error("no pattern estimated exactly")
	}
	zoe, enrol := u.Entity("ZOE"), u.Entity("ENROL-STUDENT")
	if n, _ := e.EstimateCount(sym.None, u.Top, zoe); n < 2 {
		t.Errorf("EstimateCount(?, Δ, ZOE) = %d, want the facts about ZOE", n)
	}
	if n, exact := e.EstimateCount(sym.None, enrol, u.Top); n < 2 || exact {
		t.Errorf("EstimateCount(?, ENROL-STUDENT, Δ) = %d exact %v, want an inexact count of the enrolments", n, exact)
	}
	if n, exact := e.EstimateCount(sym.None, u.Member, u.Entity("STUDIO")); n != 0 || !exact {
		t.Errorf("EstimateCount(?, ∈, STUDIO) = %d exact %v, want an exact 0", n, exact)
	}
	if _, exact := e.EstimateCount(zoe, u.Gen, sym.None); exact {
		t.Error("an estimate over ≺, which has virtual facts, claims to be exact")
	}
}

// TestMatchFreeRelationshipAllocs: a Match with a free relationship
// also enumerates virtual facts and skips those the closure emitted
// already. It must allocate no more for an entity with 1,000
// neighbours than for one with 10: no per-fact bookkeeping. A Δ
// position is a wildcard too, whose matches Match rewrites back to Δ
// and dedupes: (HUB, LIKES, Δ) collapses 1,000 facts into one, and
// (Δ, LIKES, ?), the shape of a probe's retraction wave, keeps 1,000
// apart. A dedupe set made per call grows through about 20
// allocations for those 1,000; a pooled one allocates only when the
// pool drops it, which the race detector makes it do at random (up to
// 3 per call on average, 0 without it).
func TestMatchFreeRelationshipAllocs(t *testing.T) {
	u, s, e := newEngine()
	for i := 0; i < 1000; i++ {
		n := fmt.Sprintf("N%d", i)
		s.Insert(u.NewFact("HUB", "LIKES", n))
		if i < 10 {
			s.Insert(u.NewFact("LEAF", "LIKES", n))
		}
	}
	s.Insert(u.NewFact("HUB", "isa", "THING"))
	count := func(f fact.Fact) bool { return true }
	allocs := func(name string) float64 {
		id := u.Intern(name)
		e.Match(id, sym.None, sym.None, count) // warm the closure
		return testing.AllocsPerRun(50, func() { e.Match(id, sym.None, sym.None, count) })
	}
	if hub, leaf := allocs("HUB"), allocs("LEAF"); hub > leaf {
		t.Errorf("free-relationship Match allocates %v times for 1,000 neighbours, %v for 10", hub, leaf)
	}
	likes := u.Intern("LIKES")
	for name, p := range map[string]fact.Fact{
		"(HUB, LIKES, Δ)": {S: u.Intern("HUB"), R: likes, T: u.Top},
		"(Δ, LIKES, ?)":   {S: u.Top, R: likes},
	} {
		e.Match(p.S, p.R, p.T, count)
		if n := testing.AllocsPerRun(50, func() { e.Match(p.S, p.R, p.T, count) }); n >= 10 {
			t.Errorf("Match%s allocates %v times per call", name, n)
		}
	}
}

// TestInsertedClassDeclarationRetracts: declaring a relationship a
// class relationship takes it out of R_i, which retracts what the
// membership rules derived through it. An insert-only window must not
// keep those facts, and the maintained closure must equal a fresh one.
func TestInsertedClassDeclarationRetracts(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"JOHN", "in", "EMPLOYEE"}, [3]string{"EMPLOYEE", "EARNS", "SALARY"})
	inherited := u.NewFact("JOHN", "EARNS", "SALARY")
	if !e.Closure().Has(inherited) {
		t.Fatalf("%s not inherited before the declaration", u.FormatFact(inherited))
	}
	ins(u, s, [3]string{"EARNS", "in", fact.NameClassRel})
	if e.Closure().Has(inherited) {
		t.Errorf("%s kept after EARNS was declared a class relationship", u.FormatFact(inherited))
	}
	fresh := New(s, e.Virtual())
	if got, want := e.ClosureSize(), fresh.ClosureSize(); got != want {
		t.Errorf("maintained closure has %d facts, a fresh build %d", got, want)
	}
}
