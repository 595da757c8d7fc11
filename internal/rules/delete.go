package rules

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sym"
)

// Incremental closure maintenance under deletion (DRed-style).
//
// The forward rules are monotonic, so insertions extend the closure in
// place (applyIncremental). Deletions are not: retracting one base
// fact can invalidate a cone of derived facts, and before this file
// existed any change window containing a delete forced a full rebuild
// — O(closure) work to retract one leaf. applyDeletes instead runs the
// classic delete-and-rederive scheme:
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

// applyDeletes maintains the old snapshot's closure across a change
// window containing deletions, returning the new closure and the
// overdeleted cone size. ok=false means the window is not worth it
// (cone past half the closure); the caller then rebuilds in full.
// Called with e.mu held; old is never mutated.
func (e *Engine) applyDeletes(cfg *ruleset, old *snapshot, chs []store.Change) (*store.Store, int, bool) {
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
			return nil, 0, false
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
	var frontier []fact.Fact
	for _, f := range cone {
		if (e.base.Has(f) || slices.Contains(axioms, f) || e.derive1(cfg, f, derived)) && derived.Insert(f) {
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
	return derived, len(cone), true
}

// derive1 reports whether goal g has a one-step derivation from the
// facts in st (plus virtual facts, for user-rule bodies). It reads the
// same rows as deriveFrom, from the head: "derive1 succeeds" is "a
// forward pass over st would emit g". Degenerate instantiations that
// would use g itself as a premise are impossible by construction — the
// caller only asks about facts absent from st.
func (e *Engine) derive1(cfg *ruleset, g fact.Fact, st *store.Store) bool {
	found := false
	e.toHead(cfg, g, st, func(uint32, string, []fact.Fact) bool {
		found = true
		return false
	}, false)
	return found
}

// toHead calls emit for every one-step derivation of goal g from
// premises in st, plus virtual facts for user-rule bodies: the rule,
// its provenance name and, when withPremises is set, the premises —
// else nil, and nothing is allocated per derivation. It stops when
// emit returns false.
func (e *Engine) toHead(cfg *ruleset, g fact.Fact, st *store.Store, emit func(rule uint32, why string, premises []fact.Fact) bool, withPremises bool) {
	more := e.stdToHead(e.std.rows, &cfg.std, g, st, func(rule StdRule, a, b fact.Fact) bool {
		var premises []fact.Fact
		if withPremises {
			premises = premisesOf(a, b)
		}
		return emit(uint32(rule), stdRuleNames[rule], premises)
	})

	// User rules: any head atom may conclude g; the body joins against
	// st ∪ virtual exactly as forward application does.
	for _, r := range cfg.userRules {
		if !more {
			return
		}
		var slots []sym.ID
		var body []fact.Template
		for _, h := range r.Head {
			if !more || !r.bindSlots(&slots, h, g.S, g.R, g.T) {
				continue
			}
			if body == nil {
				body = slices.Clone(r.Body)
			}
			query.Join(storeEval{e: e, derived: st}, body, slots, func() bool {
				var premises []fact.Fact
				if withPremises {
					premises = r.premises(slots)
				}
				more = emit(userRule, r.Name, premises)
				return more
			})
		}
	}
}

// premisesOf lists a standard derivation's premises: a, and b unless
// it is the zero Fact.
func premisesOf(a, b fact.Fact) []fact.Fact {
	if b == (fact.Fact{}) {
		return []fact.Fact{a}
	}
	return []fact.Fact{a, b}
}

// stdToHead is the head-directed interpreter of the rule table: it
// calls emit for every one-step derivation of g the enabled rows have
// from premises in st, until emit returns false, and reports whether
// it ran to the end.
func (e *Engine) stdToHead(rows []stdRow, on *[numStdRules]bool, g fact.Fact, st *store.Store, emit func(rule StdRule, a, b fact.Fact) bool) bool {
	gindiv := e.Individual(g.R)
	for i := range rows {
		row := &rows[i]
		more := true
		switch {
		case !on[row.rule]:
		case row.hop():
			more = e.hopToHead(row, g, gindiv, st, emit)
		case g.R == row.head:
			more = e.unaryToHead(row, g, st, emit)
		}
		if !more {
			return false
		}
	}
	return true
}

// hopToHead emits every pair of premises in st from which hop row
// concludes g, until emit returns false, and reports whether it ran to
// the end. gindiv is Individual(g.R).
func (e *Engine) hopToHead(row *stdRow, g fact.Fact, gindiv bool, st *store.Store, emit func(StdRule, fact.Fact, fact.Fact) bool) bool {
	h := g // the data premise, but for the joined position
	if row.swap {
		h = swapST(g)
	}
	if row.distinct && g.S == g.T || row.at != posR && !row.takesData(h.R, gindiv) {
		return true
	}
	far := at(h, row.at)
	// try emits d and l as the premises if they are fit to be and other,
	// the one of them the caller did not match in st, is there too.
	try := func(d, l, other fact.Fact) bool {
		if e.virtualGen(l) || e.virtualGen(d) || row.at == posR && !e.isData(row, d) || !st.Has(other) {
			return true
		}
		return emit(row.rule, d, l)
	}
	if row.dataFirst {
		dp := with(h, row.at, sym.None)
		return st.Match(dp.S, dp.R, dp.T, func(d fact.Fact) bool {
			l := row.linkFact(at(d, row.at), far)
			return try(d, l, l)
		})
	}
	lp := row.linkFact(sym.None, far)
	return st.Match(lp.S, lp.R, lp.T, func(l fact.Fact) bool {
		near, _ := row.linkEnds(l)
		d := with(h, row.at, near)
		return try(d, l, d)
	})
}

// unaryToHead emits the premises in st from which unary row concludes
// g, whose relationship is the row's head relationship, and reports
// whether emit let it run to the end.
func (e *Engine) unaryToHead(row *stdRow, g fact.Fact, st *store.Store, emit func(StdRule, fact.Fact, fact.Fact) bool) bool {
	p := fact.Fact{S: g.S, R: row.data, T: g.T}
	if row.swap {
		p = swapST(p)
	}
	if row.distinct && g.S == g.T || e.virtualGen(p) || !st.Has(p) {
		return true
	}
	if !row.twin {
		return emit(row.rule, p, fact.Fact{})
	}
	if tw := swapST(p); !e.virtualGen(tw) && st.Has(tw) {
		return emit(row.rule, p, tw)
	}
	return true
}
