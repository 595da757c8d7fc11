package rules

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/store"
)

// Incremental closure maintenance across a change window
// (DRed-style).
//
// The forward rules are monotonic, so insertions extend the closure in
// place. Deletions are not: retracting one base fact can invalidate a
// cone of derived facts, and before this file existed any change
// window containing a delete forced a full rebuild — O(closure) work
// to retract one leaf. applyChanges instead runs the classic
// delete-and-rederive scheme, of which a window without deletes runs
// only the last step, from its inserts:
//
//  1. Overdelete: starting from the net-deleted base facts, walk
//     one-step derivations *forward* through the old closure
//     (deriveFrom with all=true, so conclusions already present are
//     reported rather than suppressed). Everything reachable — every
//     fact with some derivation touching a deleted fact — joins the
//     overdeleted cone. This over-approximates the truly dead set.
//
//  2. Prune: clone the old closure (the clone shares its base;
//     published snapshots are never mutated) and tombstone the cone.
//
//  3. Rederive: a cone fact may have an alternative derivation that
//     never touched a deleted fact. Scan the cone and reinstate facts
//     that are stored in the (new) base, are axioms, or have a one-step
//     derivation from surviving facts (derive1, the rule table read
//     from the head). Reinstating a fact drops its tombstone;
//     reinstated facts seed a frontier.
//
//  4. Propagate: semi-naive forward chaining from the frontier (plus
//     any net-inserted base facts of the same window) restores the
//     remainder of the cone that is still derivable — a fact whose
//     alternative support appears only after another cone fact is
//     reinstated is found here — and folds in the window's inserts.
//
// The result equals computeClosure on the new base; nothing records
// how a fact was derived, so Explain and Derive answer for it as they
// would after a full build. A cone larger than half the closure (the
// walk would cost more than recomputing) returns ok=false and falls
// back to a full rebuild. A window that changes a class-relation
// declaration (rel, ∈, @class) never gets here (Engine.reclassifies):
// Individual() is a negated dependency, so those flips are
// non-monotone in both directions and invalidate the premise matching
// underlying steps 1 and 3.

// netChanges collapses a change window into the facts net-inserted
// and net-deleted relative to the window's start. The store only
// records effective changes, so the first record for a fact reveals
// its initial state (an insert means it was absent, a delete means
// present) and the last record its final state; a fact whose first
// and last records disagree nets to nothing.
func netChanges(chs []store.Change) (ins, del []fact.Fact) {
	type rec struct{ firstDel, lastDel bool }
	seen := make(map[fact.Fact]*rec, len(chs))
	order := make([]fact.Fact, 0, len(chs))
	for _, ch := range chs {
		if r, ok := seen[ch.Fact]; ok {
			r.lastDel = ch.Deleted
		} else {
			seen[ch.Fact] = &rec{firstDel: ch.Deleted, lastDel: ch.Deleted}
			order = append(order, ch.Fact)
		}
	}
	for _, f := range order {
		switch r := seen[f]; {
		case !r.firstDel && !r.lastDel:
			ins = append(ins, f)
		case r.firstDel && r.lastDel:
			del = append(del, f)
		}
	}
	return ins, del
}

// applyChanges maintains the old snapshot's closure across a change
// window, returning the new closure, the facts it inserted into it (the
// reinstated cone facts and the new ones: with an empty cone, exactly
// what the window adds to the closure) and the overdeleted cone size.
// ok=false means the window is not worth it (cone past half the
// closure); the caller then rebuilds in full. Called with e.mu held;
// old is never mutated.
func (e *Engine) applyChanges(cfg *ruleset, old *snapshot, chs []store.Change) (*store.Store, []fact.Fact, int, bool) {
	ins, del := netChanges(chs)

	// Phase 1: overdelete.
	oldC := old.closure
	limit := oldC.Len() / 2
	over := make(map[fact.Fact]bool, 4*len(del))
	cone := make([]fact.Fact, 0, 4*len(del))
	for _, f := range del {
		if oldC.Has(f) && !over[f] {
			over[f] = true
			cone = append(cone, f)
		}
	}
	var buf []derivation
	for i := 0; i < len(cone); i++ {
		if len(cone) > limit {
			return nil, nil, 0, false
		}
		buf = e.deriveFrom(cfg, cone[i], oldC, true, buf[:0])
		for _, d := range buf {
			if !over[d.f] && oldC.Has(d.f) {
				over[d.f] = true
				cone = append(cone, d.f)
			}
		}
	}

	// Phase 2: prune the cone from a clone.
	derived := oldC.Clone()
	for _, f := range cone {
		derived.Delete(f)
	}

	// Phase 3: rederive cone facts with surviving support: still stored
	// (the deletes hit other facts; this one was merely reachable from
	// them), an axiom, or derivable in one step.
	axioms := e.axiomFacts()
	src := storeSource(derived)
	var frontier []fact.Fact
	for _, f := range cone {
		if (e.base.Has(f) || slices.Contains(axioms, f) || e.derive1(cfg, f, src)) && derived.Insert(f) {
			frontier = append(frontier, f)
		}
	}

	// Phase 4: forward propagation from the reinstated facts and the
	// window's net inserts.
	for _, f := range ins {
		if derived.Insert(f) {
			frontier = append(frontier, f)
		}
	}
	for i := 0; i < len(frontier); i++ {
		buf = e.deriveFrom(cfg, frontier[i], derived, false, buf[:0])
		for _, d := range buf {
			if derived.Insert(d.f) {
				frontier = append(frontier, d.f)
			}
		}
	}
	return derived, frontier, len(cone), true
}

// derive1 reports whether goal g has a one-step derivation from the
// facts of store source st (plus virtual facts, for user-rule bodies): the
// goal-directed interpreter reads the same rows as deriveFrom, from
// the head, so "derive1 succeeds" is "a forward pass over st would emit
// g". Degenerate instantiations that would use g itself as a premise
// are impossible by construction — the caller only asks about facts
// absent from st.
func (e *Engine) derive1(cfg *ruleset, g fact.Fact, st source) bool {
	return !e.goal(e.std, cfg, st, g, func(hit) bool { return false })
}
