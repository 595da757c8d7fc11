package rules_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/virtual"
)

// tableWorld is a set of stored facts the table test runs every row
// over. The axiom facts are stored too: the bounded matcher sees them
// in every subgoal, and a closure build pushes them first.
type tableWorld struct {
	name  string
	u     *fact.Universe
	facts []fact.Fact
}

func tableWorlds() []tableWorld {
	var ws []tableWorld
	for seed := int64(0); seed < 12; seed++ {
		db := gen.Generate(seed, gen.Small()).Build()
		ws = append(ws, tableWorld{fmt.Sprintf("gen.Small seed %d", seed), db.Universe(), db.Engine().Base().Facts()})
	}
	for name, triples := range rules.EdgeWorlds {
		u := fact.NewUniverse()
		w := tableWorld{name: name, u: u}
		for _, f := range triples {
			w.facts = append(w.facts, u.NewFact(f[0], f[1], f[2]))
		}
		ws = append(ws, w)
	}
	return ws
}

// engineOver returns an engine whose base store holds facts, the axiom
// facts, and not skip.
func engineOver(u *fact.Universe, facts []fact.Fact, skip fact.Fact) *rules.Engine {
	st := store.New(u)
	e := rules.New(st, virtual.New(u))
	for _, f := range append(facts, e.AxiomFacts()...) {
		if f != skip {
			st.Insert(f)
		}
	}
	return e
}

// forwardAll is the union of what the row's forward interpreter emits
// from every fact of e's base as the trigger.
func forwardAll(e *rules.Engine, i int) map[fact.Fact]bool {
	out := map[fact.Fact]bool{}
	row := e.TableRows()[i]
	for _, f := range e.Base().Facts() {
		for _, g := range row.Forward(f, e.Base()) {
			out[g] = true
		}
	}
	return out
}

// TestRuleTableThreeWays checks the table row by row, with nothing
// else enabled: on every world, the facts the forward interpreter
// emits from some trigger are exactly the facts the goal-directed
// interpreter accepts over a store (head-directed, as delete
// propagation reads it) and exactly the facts it concludes from the
// bounded matcher's depth-0 answers (backward, as MatchBounded reads it
// at depth 1). This is what "the closure, delete propagation and the
// on-demand matcher agree" rests on; a new row, or a new field the
// interpreters read, is covered by adding nothing here.
func TestRuleTableThreeWays(t *testing.T) {
	exercised := map[int]int{}
	defer func() {
		for i, row := range engineOver(fact.NewUniverse(), nil, fact.Fact{}).TableRows() {
			if exercised[i] == 0 {
				t.Errorf("%v: no world makes the row conclude anything", row)
			}
		}
	}()
	for _, w := range tableWorlds() {
		e := engineOver(w.u, w.facts, fact.Fact{})
		for i, row := range e.TableRows() {
			fwd := forwardAll(e, i)
			exercised[i] += len(fwd)

			// Backward at depth 1 enumerates the forward emissions and
			// nothing else.
			back := map[fact.Fact]bool{}
			for _, g := range row.Backward() {
				back[g] = true
				if !fwd[g] {
					t.Errorf("%s, %v: backward enumerates %s, which no trigger emits forwards", w.name, row, w.u.FormatFact(g))
				}
			}
			for g := range fwd {
				if !back[g] {
					t.Errorf("%s, %v: forward emits %s, which backward does not enumerate at depth 1", w.name, row, w.u.FormatFact(g))
				}
			}

			// Head-directed accepts a fact on the store without it iff
			// forward emits it there. Candidates: every emission, every
			// stored fact, and random facts over the world's entities.
			cands := e.Base().Facts()
			for g := range fwd {
				cands = append(cands, g)
			}
			ents := e.Base().Entities()
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 40; k++ {
				cands = append(cands, fact.Fact{
					S: ents[rng.Intn(len(ents))], R: ents[rng.Intn(len(ents))], T: ents[rng.Intn(len(ents))]})
			}
			for _, g := range cands {
				without, emitted := e, fwd
				if e.Base().Has(g) {
					without = engineOver(w.u, w.facts, g)
					emitted = forwardAll(without, i)
				}
				if got := without.TableRows()[i].ToHead(g, without.Base()); got != emitted[g] {
					t.Errorf("%s, %v: head-directed accepts %s = %v, forward emits it = %v",
						w.name, row, w.u.FormatFact(g), got, emitted[g])
				}
			}
		}
	}
}

// TestRuleTableOrders checks that the one list every pass visits
// names every row once.
func TestRuleTableOrders(t *testing.T) {
	e := engineOver(fact.NewUniverse(), nil, fact.Fact{})
	for _, row := range e.TableRows() {
		if n := row.Visits(); n != 1 {
			t.Errorf("%v: named %d times in the table, want 1", row, n)
		}
	}
}
