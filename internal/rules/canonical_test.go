package rules_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/sym"
)

// TestFullBuildProvenanceCanonical checks that a full build's
// provenance is a function of the database. The rendered provenance
// must not move with the worker count or when the stored facts are
// asserted in reverse order, and it must match a brute force: naive
// rounds over the whole closure so far, each new fact named by its
// least one-step derivation from earlier-round facts (canonicalLess).
// gen.Medium seed 2 is large enough for its rounds to run sharded.
func TestFullBuildProvenanceCanonical(t *testing.T) {
	worlds := []provWorld{{"employment", employmentPays(t)}}
	for seed := int64(1); seed <= 5; seed++ {
		worlds = append(worlds, provWorld{fmt.Sprintf("gen.Small seed %d", seed), gen.Generate(seed, gen.Small()).Build()})
	}
	worlds = append(worlds, provWorld{"gen.Medium seed 2", gen.Generate(2, gen.Medium()).Build()})

	for _, w := range worlds {
		e := w.db.Engine()
		var want string
		for _, workers := range []int{1, 2, 4} {
			e.SetWorkers(workers)
			e.Invalidate()
			got := renderProvenance(w.db)
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: provenance on %d workers differs from one worker", w.name, workers)
			}
		}
		e.SetWorkers(0)
		if got := renderProvenance(reversed(t, w.db)); got != want {
			t.Errorf("%s: provenance differs when the base is asserted in reverse order", w.name)
		}
		checkNaiveRounds(t, w)
	}
}

// reversed returns a database with db's entities, rule configuration
// and stored facts, the facts asserted in reverse order. Interning the
// names in db's order first keeps every entity's ID, so fact.Compare,
// and with it the canonical order, is the same in both.
func reversed(t *testing.T, db *lsdb.Database) *lsdb.Database {
	t.Helper()
	rev := lsdb.New()
	u := rev.Universe()
	db.Universe().Each(func(id sym.ID, name string) bool {
		if u.Intern(name) != id {
			t.Fatalf("entity %s interned out of order", name)
		}
		return true
	})
	for _, r := range rules.StdRules() {
		if !db.Engine().Included(r) {
			rev.Engine().Exclude(r)
		}
	}
	for _, r := range db.Engine().Rules() {
		if err := rev.Engine().AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	facts := db.Engine().Base().Facts()
	slices.SortFunc(facts, fact.Compare)
	slices.Reverse(facts)
	for _, f := range facts {
		if err := rev.AssertFact(f); err != nil {
			t.Fatal(err)
		}
	}
	return rev
}

// canonicalLess is the canonical order of derivations of one fact,
// written out independently of the engine: standard rules in StdRule
// order, then user rules by name, then the premise lists, each sorted
// by fact.Compare, lexicographically.
func canonicalLess(a, b rules.Step) bool {
	ra, aStd := rules.StdRuleByName(a.Rule)
	rb, bStd := rules.StdRuleByName(b.Rule)
	switch {
	case aStd && bStd && ra != rb:
		return ra < rb
	case aStd != bStd:
		return aStd
	case !aStd && a.Rule != b.Rule:
		return a.Rule < b.Rule
	}
	pa, pb := slices.Clone(a.Premises), slices.Clone(b.Premises)
	slices.SortFunc(pa, fact.Compare)
	slices.SortFunc(pb, fact.Compare)
	return slices.CompareFunc(pa, pb, fact.Compare) < 0
}

// checkNaiveRounds recomputes w's closure by naive rounds: round 0 is
// the stored facts and the axioms, and round k every fact with a
// one-step derivation whose premises are all in rounds < k. Each fact
// the engine derives must be in the same closure, and its recorded
// derivation must be the least (canonicalLess) of its round: premises
// from earlier rounds, and no other one-step derivation from
// earlier-round facts before it.
func checkNaiveRounds(t *testing.T, w provWorld) {
	t.Helper()
	e := w.db.Engine()
	u := w.db.Universe()
	round := make(map[fact.Fact]int)
	have := e.Base().Facts()
	for _, f := range have {
		round[f] = 0
	}
	for _, ax := range e.AxiomFacts() {
		if _, ok := round[ax]; !ok {
			round[ax] = 0
			have = append(have, ax)
		}
	}
	best := make(map[fact.Fact]rules.Step)
	for k := 1; ; k++ {
		st := store.SealedFromFacts(u, slices.Clone(have))
		fresh := make(map[fact.Fact]rules.Step)
		for _, f := range have {
			for _, s := range e.Steps(f, st) {
				if st.Has(s.Head) {
					continue
				}
				if cur, ok := fresh[s.Head]; !ok || canonicalLess(s, cur) {
					fresh[s.Head] = s
				}
			}
		}
		if len(fresh) == 0 {
			break
		}
		for f, s := range fresh {
			round[f] = k
			best[f] = s
			have = append(have, f)
		}
	}

	closure := e.Closure()
	if closure.Len() != len(round) {
		t.Fatalf("%s: engine closure has %d facts, naive rounds %d", w.name, closure.Len(), len(round))
	}
	for _, f := range closure.Facts() {
		k, ok := round[f]
		if !ok {
			t.Fatalf("%s: %s is in the engine's closure only", w.name, u.FormatFact(f))
		}
		if k == 0 {
			continue
		}
		d := e.Derive(f)
		got := rules.Step{Head: f, Rule: d.Rule}
		for _, p := range d.Premises {
			got.Premises = append(got.Premises, p.Fact)
			if pk, ok := round[p.Fact]; ok && pk >= k {
				t.Errorf("%s: %s (round %d) names premise %s of round %d",
					w.name, u.FormatFact(f), k, u.FormatFact(p.Fact), pk)
			}
		}
		if want := best[f]; canonicalLess(want, got) || canonicalLess(got, want) {
			t.Errorf("%s: %s (round %d) recorded as %s, canonical is %s",
				w.name, u.FormatFact(f), k, formatStep(u, got), formatStep(u, want))
		}
	}
}

func formatStep(u *fact.Universe, s rules.Step) string {
	ps := make([]string, len(s.Premises))
	for i, p := range s.Premises {
		ps[i] = u.FormatFact(p)
	}
	return "[" + s.Rule + "] " + strings.Join(ps, " ")
}

// TestExplainConcurrentAgrees: explanations of one snapshot share the
// round bounds it has learned, so goroutines explaining at once must
// each get what a lone caller on a fresh database gets.
func TestExplainConcurrentAgrees(t *testing.T) {
	w := gen.Generate(2, gen.Medium())
	ref, db := w.Build(), w.Build()
	facts := ref.Engine().Closure().Facts()
	want := make([]string, len(facts))
	for i, f := range facts {
		want[i] = ref.Engine().Explain(f)
	}
	e, u, ru := db.Engine(), db.Universe(), ref.Universe()
	const workers = 4
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(facts); i += workers {
				f := facts[i]
				f = u.NewFact(ru.Name(f.S), ru.Name(f.R), ru.Name(f.T))
				if got := e.Explain(f); got != want[i] {
					t.Errorf("%s: explained as %s, alone as %s", u.FormatFact(f), got, want[i])
				}
				if d := e.Derive(f); d == nil || d.Rule != want[i] {
					t.Errorf("%s: no derivation under %s", u.FormatFact(f), want[i])
				}
			}
		}()
	}
	wg.Wait()
}
