package rules

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fact"
	"repro/internal/store"
)

// Provenance is how a fact of the closure was obtained: "stored",
// "axiom", "virtual" (a virtual fact the closure does not hold), or the
// rule of its canonical derivation with that derivation's premises,
// sorted by fact.Compare. Nothing stores it. Like the closure, it is a
// function of the stored facts and the active rules, and Explain and
// Derive work it out on demand:
//
//  1. the fact's round d is the least d such that it has a one-step
//     derivation whose premises all have rounds below d, stored facts
//     and axioms having round 0 — the semi-naive round that first
//     obtains it;
//  2. its canonical derivation is the least, under cmpDerivation, of
//     its one-step derivations whose premises all have rounds below d.
//
// The answer does not depend on how the closure was reached: a full
// build, incremental maintenance and delete-and-rederive all give the
// same one. Premises may themselves be derived; Derive follows them
// back to stored facts.
type Provenance struct {
	Rule     string
	Premises []fact.Fact
}

// step is one derivation of a fact with its premises, sorted.
type step struct {
	derivation
	premises []fact.Fact
}

// cmpDerivation orders derivations of one fact canonically: by rule
// (cmpRule), then the sorted premise lists lexicographically.
func cmpDerivation(a, b step) int {
	if c := cmpRule(&a.derivation, &b.derivation); c != 0 {
		return c
	}
	return slices.CompareFunc(a.premises, b.premises, fact.Compare)
}

// explainer works out provenance against one closure snapshot, reading
// each fact's derivations from the head (goal) against the closure.
// The derivations it reads last one Explain, Derive or Check; the
// round bounds it learns are the snapshot's, kept for the next one.
type explainer struct {
	e     *Engine
	cfg   *ruleset
	s     *snapshot
	c     *store.Store
	src   source               // the closure, as the goal-directed interpreter reads it
	steps map[fact.Fact][]step // a fact's derivations, in canonical order
}

// bound is what explanations have learned of a derived fact's round r:
// above < r, and r ≤ upTo unless upTo is 0. Proving that a round is not
// below d walks the fact's support cone, and neighbouring facts share
// most of it, so a snapshot keeps the bounds of the facts met — no
// derivation — from its first explanation until it is dropped.
type bound struct{ above, upTo int }

// explainer returns an explainer over the current snapshot, which it
// holds until release: explanations on one snapshot take turns.
func (e *Engine) explainer() *explainer {
	s := e.current()
	s.explainMu.Lock()
	if s.rounds == nil {
		s.rounds = make(map[fact.Fact]bound)
	}
	return &explainer{e: e, cfg: e.rs.Load(), s: s, c: s.closure, src: storeSource(s.closure), steps: make(map[fact.Fact][]step)}
}

func (x *explainer) release() { x.s.explainMu.Unlock() }

// why returns the provenance of f, which is in the closure or virtual.
func (x *explainer) why(f fact.Fact) Provenance {
	e := x.e
	switch {
	case e.base.Has(f):
		return Provenance{Rule: "stored"}
	case !x.c.Has(f):
		return Provenance{Rule: "virtual"}
	case slices.Contains(e.axiomFacts(), f):
		return Provenance{Rule: "axiom"}
	}
	if d, s := x.round(f); d > 0 {
		return Provenance{Rule: s.why, Premises: s.premises}
	}
	return Provenance{Rule: "derived"} // unreachable while goal mirrors the forward pass
}

// round returns the round of f, a derived closure fact, and its
// canonical derivation; 0 if it has none.
func (x *explainer) round(f fact.Fact) (int, step) {
	for d := 1; d <= x.c.Len(); d++ { // no round exceeds the closure's size
		if s, ok := x.within(f, d); ok {
			return d, s
		}
	}
	return 0, step{}
}

// derivations returns f's one-step derivations from closure facts and,
// for user-rule bodies, virtual facts, sorted by cmpDerivation.
func (x *explainer) derivations(f fact.Fact) []step {
	steps, ok := x.steps[f]
	if !ok {
		x.e.goal(x.e.std, x.cfg, x.src, f, func(h hit) bool {
			premises := h.premises()
			slices.SortFunc(premises, fact.Compare)
			steps = append(steps, step{derivation{f: f, rule: h.rule, why: h.why()}, premises})
			return true
		})
		slices.SortFunc(steps, cmpDerivation)
		x.steps[f] = steps
	}
	return steps
}

// within returns the least derivation of f whose premises all have
// rounds below d, if f has one: then f's round is at most d.
func (x *explainer) within(f fact.Fact, d int) (step, bool) {
next:
	for _, s := range x.derivations(f) {
		for _, p := range s.premises {
			if !x.roundAtMost(p, d-1, s.rule == userRule) {
				continue next
			}
		}
		return s, true
	}
	return step{}, false
}

// roundAtMost reports whether premise p's round is at most d. A
// user-rule body joins against the virtual facts too, which are there
// from the first round.
func (x *explainer) roundAtMost(p fact.Fact, d int, virtualOK bool) bool {
	e := x.e
	switch {
	case e.base.Has(p) || slices.Contains(e.axiomFacts(), p) || virtualOK && e.vp.Has(p):
		return true
	case d <= 0 || !x.c.Has(p):
		return false
	}
	switch b := x.s.rounds[p]; {
	case b.upTo != 0 && b.upTo <= d:
		return true
	case b.above >= d:
		return false
	}
	_, ok := x.within(p, d)
	b := x.s.rounds[p] // within may have learned of p too
	if ok && (b.upTo == 0 || d < b.upTo) {
		b.upTo = d
	} else if !ok && d > b.above {
		b.above = d
	}
	x.s.rounds[p] = b
	return ok
}

// Explain returns how fact f entered the closure: "stored", "axiom",
// the rule of its canonical derivation (see Provenance), or "" if f is
// not in the (materialized part of the) closure.
func (e *Engine) Explain(f fact.Fact) string {
	x := e.explainer()
	defer x.release()
	if !e.base.Has(f) && !x.c.Has(f) {
		return ""
	}
	return x.why(f).Rule
}

// Round returns the semi-naive round in which f enters the closure:
// 0 for a stored fact or an axiom; for a derived fact, the least d such
// that it has a one-step derivation whose premises all have rounds
// below d (see Provenance); -1 for a fact the closure does not hold.
// MatchBounded at depth d finds a closure fact exactly when its round
// is at most d.
func (e *Engine) Round(f fact.Fact) int {
	x := e.explainer()
	defer x.release()
	switch {
	case e.base.Has(f) || slices.Contains(e.axiomFacts(), f):
		return 0
	case !x.c.Has(f):
		return -1
	}
	d, _ := x.round(f)
	return d
}

// Derivation is a proof tree for a closure fact: the fact, how it was
// obtained, and — for derived facts — the derivations of its premises.
type Derivation struct {
	Fact     fact.Fact
	Rule     string // "stored", "axiom", "virtual", or the deriving rule's name
	Premises []*Derivation
}

// Derive returns the proof tree of f, or nil if f is not in the
// materialized closure. Each fact is expanded by its canonical
// derivation (see Provenance), and recursion stops at stored facts,
// axioms and virtual facts. A premise's round is below its
// conclusion's, so the tree is finite; a fact met a second time is not
// expanded again.
func (e *Engine) Derive(f fact.Fact) *Derivation {
	x := e.explainer()
	defer x.release()
	if !x.c.Has(f) {
		return nil
	}
	seen := make(map[fact.Fact]string)
	var build func(fact.Fact) *Derivation
	build = func(g fact.Fact) *Derivation {
		if why, ok := seen[g]; ok {
			return &Derivation{Fact: g, Rule: why}
		}
		p := x.why(g)
		seen[g] = p.Rule
		d := &Derivation{Fact: g, Rule: p.Rule}
		for _, prem := range p.Premises {
			d.Premises = append(d.Premises, build(prem))
		}
		return d
	}
	return build(f)
}

// Format renders the proof tree indented, one fact per line.
func (d *Derivation) Format(u *fact.Universe) string {
	var b strings.Builder
	var walk func(*Derivation, int)
	walk = func(n *Derivation, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s  [%s]\n", u.FormatFact(n.Fact), n.Rule)
		for _, p := range n.Premises {
			walk(p, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}
