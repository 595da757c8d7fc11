package rules

import (
	"slices"

	"repro/internal/fact"
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
//     published snapshots are never mutated) and tombstone the cone,
//     with its provenance.
//
//  3. Rederive: a cone fact may have an alternative derivation that
//     never touched a deleted fact. Scan the cone in canonical order
//     and reinstate facts that are stored in the (new) base, are
//     axioms, or have a one-step derivation from surviving facts
//     (derive1, the head-directed mirror of deriveFrom). Reinstating
//     a fact drops its tombstone; reinstated facts seed a frontier.
//
//  4. Propagate: semi-naive forward chaining from the frontier (plus
//     any net-inserted base facts of the same window) restores the
//     remainder of the cone that is still derivable — a fact whose
//     alternative support appears only after another cone fact is
//     reinstated is found here — and folds in the window's inserts.
//
// The result equals computeClosure on the new base. Two escape
// hatches return ok=false and fall back to a full rebuild: a cone
// larger than half the closure (the walk would cost more than
// recomputing), and any change to a class-relation declaration
// (rel, ∈, @class) — Individual() is a negated dependency, so those
// flips are non-monotone in both directions and invalidate the
// premise matching underlying steps 1 and 3.

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
// window containing deletions, returning the new closure, its
// provenance, and the overdeleted cone size. ok=false means the
// window is not eligible (non-monotone Individual() flip) or not
// worth it (cone past half the closure); the caller then rebuilds in
// full. Called with e.mu held; old is never mutated.
func (e *Engine) applyDeletes(cfg *ruleset, old *snapshot, chs []store.Change) (*store.Store, *provMap, int, bool) {
	ins, del := netChanges(chs)
	u := e.u
	for _, f := range append(del, ins...) {
		if f.R == u.Member && f.T == u.RelClassOfClass {
			return nil, nil, 0, false
		}
	}

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
	prov := old.prov.extend()
	for _, f := range cone {
		derived.Delete(f)
		prov.delete(f)
	}

	// Phase 3: rederive cone facts with surviving support. sortFacts
	// pins the scan (and thus first-wins provenance) deterministically.
	sortFacts(cone)
	axioms := e.axiomFactList()
	var frontier []fact.Fact
	for _, f := range cone {
		switch {
		case e.base.Has(f):
			// Still a stored fact (the deletes hit other facts; this one
			// was merely reachable from them).
			if derived.Insert(f) {
				frontier = append(frontier, f)
			}
		case slices.Contains(axioms, f):
			if derived.Insert(f) {
				prov.set(f, Provenance{Rule: "axiom"})
				frontier = append(frontier, f)
			}
		default:
			if p, ok := e.derive1(cfg, f, derived); ok && derived.Insert(f) {
				sortPremises(p.Premises)
				prov.set(f, p)
				frontier = append(frontier, f)
			}
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
				sortPremises(d.premises)
				prov.set(d.f, Provenance{Rule: d.why, Premises: d.premises})
				frontier = append(frontier, d.f)
			}
		}
	}
	return derived, prov, len(cone), true
}

// derive1 reports whether goal g has a one-step derivation from the
// facts in st (plus virtual facts, for user-rule bodies), returning
// the provenance of the first one found. It is the head-directed
// mirror of deriveFrom: every emit case there has its premise pattern
// inverted here, so "derive1 succeeds" coincides exactly with "a
// forward pass over st would emit g". Degenerate instantiations that
// would use g itself as a premise are impossible by construction —
// the caller only asks about facts absent from st.
func (e *Engine) derive1(cfg *ruleset, g fact.Fact, st *store.Store) (Provenance, bool) {
	u := e.u
	var out Provenance
	found := false
	take := func(why string, premises ...fact.Fact) {
		out = Provenance{Rule: why, Premises: premises}
		found = true
	}

	gindiv := e.Individual(g.R)

	// The §3.1/§3.2 inheritance rules all conclude an individual fact
	// from a data premise plus one structural hop.
	if gindiv {
		if cfg.std[GenSource] {
			// g=(s',r,t) ⇐ (s',≺,s) ∧ (s,r,t)
			st.Match(g.S, u.Gen, sym.None, func(h fact.Fact) bool {
				if d := (fact.Fact{S: h.T, R: g.R, T: g.T}); st.Has(d) {
					take("gen-source", d, h)
					return false
				}
				return true
			})
		}
		if !found && cfg.std[GenTarget] {
			// g=(s,r,t') ⇐ (s,r,t) ∧ (t,≺,t')
			st.Match(sym.None, u.Gen, g.T, func(h fact.Fact) bool {
				if d := (fact.Fact{S: g.S, R: g.R, T: h.S}); st.Has(d) {
					take("gen-target", d, h)
					return false
				}
				return true
			})
		}
		if !found && cfg.std[MemberSource] {
			// g=(m,r,t) ⇐ (m,∈,c) ∧ (c,r,t)
			st.Match(g.S, u.Member, sym.None, func(h fact.Fact) bool {
				if d := (fact.Fact{S: h.T, R: g.R, T: g.T}); st.Has(d) {
					take("member-source", d, h)
					return false
				}
				return true
			})
		}
		if !found && cfg.std[MemberTarget] {
			// g=(s,r,c) ⇐ (s,r,m) ∧ (m,∈,c)
			st.Match(sym.None, u.Member, g.T, func(h fact.Fact) bool {
				if d := (fact.Fact{S: g.S, R: g.R, T: h.S}); st.Has(d) {
					take("member-target", d, h)
					return false
				}
				return true
			})
		}
	}
	if !found && cfg.std[GenRel] {
		// g=(s,r',t) ⇐ (s,r,t) ∧ (r,≺,r'). Gated on Individual(r) —
		// the premise's relation, not the goal's (forward checks only
		// the data fact it joins from).
		st.Match(sym.None, u.Gen, g.R, func(h fact.Fact) bool {
			if !e.Individual(h.S) {
				return true
			}
			if d := (fact.Fact{S: g.S, R: h.S, T: g.T}); st.Has(d) {
				take("gen-rel", d, h)
				return false
			}
			return true
		})
	}
	if !found && cfg.std[Inversion] {
		// g=(t,r',s) ⇐ (s,r,t) ∧ (r,⇌,r'), either orientation of the
		// inversion fact.
		st.Match(sym.None, u.Inv, g.R, func(h fact.Fact) bool {
			if d := (fact.Fact{S: g.T, R: h.S, T: g.S}); st.Has(d) {
				take("inversion", d, h)
				return false
			}
			return true
		})
		if !found {
			st.Match(g.R, u.Inv, sym.None, func(h fact.Fact) bool {
				if d := (fact.Fact{S: g.T, R: h.T, T: g.S}); st.Has(d) {
					take("inversion", d, h)
					return false
				}
				return true
			})
		}
	}
	if !found && g.R == u.Gen {
		if cfg.std[GenTransitive] && g.S != g.T {
			// g=(a,≺,c) ⇐ (a,≺,x) ∧ (x,≺,c)
			st.Match(g.S, u.Gen, sym.None, func(h fact.Fact) bool {
				if d := (fact.Fact{S: h.T, R: u.Gen, T: g.T}); st.Has(d) {
					take("gen-transitive", h, d)
					return false
				}
				return true
			})
		}
		if !found && cfg.std[Synonym] {
			// g=(a,≺,b) ⇐ (a,≈,b) or (b,≈,a). No a≠b gate: forward
			// derives both generalizations from any synonym fact,
			// including a self-synonym.
			if d := (fact.Fact{S: g.S, R: u.Syn, T: g.T}); st.Has(d) {
				take("synonym", d)
			} else if d := (fact.Fact{S: g.T, R: u.Syn, T: g.S}); st.Has(d) {
				take("synonym", d)
			}
		}
	}
	if !found && g.R == u.Member && cfg.std[MemberUp] {
		// g=(m,∈,c) ⇐ (m,∈,x) ∧ (x,≺,c)
		st.Match(g.S, u.Member, sym.None, func(h fact.Fact) bool {
			if h.T == g.T {
				return true
			}
			if d := (fact.Fact{S: h.T, R: u.Gen, T: g.T}); st.Has(d) {
				take("member-up", h, d)
				return false
			}
			return true
		})
	}
	if !found && g.R == u.Syn && cfg.std[Synonym] {
		// g=(a,≈,b) ⇐ (b,≈,a), or two-way generalization.
		if d := (fact.Fact{S: g.T, R: u.Syn, T: g.S}); st.Has(d) {
			take("synonym", d)
		} else if g.S != g.T {
			ab := fact.Fact{S: g.S, R: u.Gen, T: g.T}
			ba := fact.Fact{S: g.T, R: u.Gen, T: g.S}
			if st.Has(ab) && st.Has(ba) {
				take("synonym", ab, ba)
			}
		}
	}
	if !found && g.R == u.Inv && cfg.std[Inversion] {
		// g=(q',⇌,q) ⇐ (q,⇌,q')
		if d := (fact.Fact{S: g.T, R: u.Inv, T: g.S}); st.Has(d) {
			take("inversion", d)
		}
	}

	// User rules: any head atom may conclude g; the body joins against
	// st ∪ virtual exactly as forward application does.
	for _, r := range cfg.userRules {
		if found {
			break
		}
		for _, h := range r.Head {
			// Forward application instantiates heads from body
			// bindings only — a head variable the body never binds
			// means the head is never emitted, even though unifying
			// against the ground goal would bind it here.
			if !headBoundByBody(h, r.Body) {
				continue
			}
			bind := getBinding()
			if !unifyTemplate(h, g, bind) {
				putBinding(bind)
				continue
			}
			body := append(make([]fact.Template, 0, len(r.Body)), r.Body...)
			e.joinAtoms(body, bind, st, func(bb binding) {
				if found {
					return
				}
				premises := make([]fact.Fact, 0, len(r.Body))
				for _, atom := range r.Body {
					if p, ok := instantiate(atom, bb); ok {
						premises = append(premises, p)
					}
				}
				// Re-check the head grounds to g (unifyPattern-style
				// partial heads cannot occur here: g is ground, so the
				// unification above bound every head variable).
				if gg, ok := instantiate(h, bb); ok && gg == g {
					take(r.Name, premises...)
				}
			})
			putBinding(bind)
			if found {
				break
			}
		}
	}
	return out, found
}

// headBoundByBody reports whether every variable of head template h
// occurs in some body atom (so forward application can ground it).
func headBoundByBody(h fact.Template, body []fact.Template) bool {
	bodyHas := func(v fact.Var) bool {
		for _, a := range body {
			for _, t := range [3]fact.Term{a.S, a.R, a.T} {
				if t.IsVar() && t.Variable == v {
					return true
				}
			}
		}
		return false
	}
	for _, t := range [3]fact.Term{h.S, h.R, h.T} {
		if t.IsVar() && !bodyHas(t.Variable) {
			return false
		}
	}
	return true
}
