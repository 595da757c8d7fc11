// Package virtual supplies the facts the paper assumes exist without
// being stored (§2.3, §3.6): mathematical relationships over numbers,
// equality/inequality over all entities, the reflexivity of
// generalization, and the Δ/∇ hierarchy axioms.
//
// These fact families are infinite (all numbers) or quadratic in the
// universe (all ≠ pairs), so — exactly as §3.6 anticipates — they are
// never materialized. A Provider answers template matches on demand,
// enumerating free positions over a caller-supplied active Domain.
package virtual

import (
	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/sym"
)

// Domain is the finite set of entities over which free positions of a
// virtual template are enumerated. The store's active domain (all
// entities occurring in stored facts) satisfies this.
type Domain interface {
	Entities() []sym.ID
	HasEntity(sym.ID) bool
}

// Kind selects a family of virtual facts.
type Kind int

const (
	// Math supplies comparator facts <, >, ≤, ≥ between numeric
	// entities (§3.6).
	Math Kind = iota
	// Equality supplies (E,=,E) and (E1,≠,E2) for distinct E1, E2
	// (§3.6: "for every two entities exactly one of these two facts").
	Equality
	// GenAxioms supplies reflexive generalization (E,≺,E) and the
	// hierarchy extremes (E,≺,Δ) and (∇,≺,E) (§2.3).
	GenAxioms
	numKinds
)

// Provider answers virtual-fact queries for the enabled kinds.
// All kinds are enabled by default. Provider is safe for concurrent
// readers as long as Enable/Disable are not called concurrently.
type Provider struct {
	u       *fact.Universe
	enabled [numKinds]bool
}

// New returns a provider over universe u with every kind enabled.
func New(u *fact.Universe) *Provider {
	p := &Provider{u: u}
	for k := range p.enabled {
		p.enabled[k] = true
	}
	return p
}

// Enable turns a fact family on.
func (p *Provider) Enable(k Kind) { p.enabled[k] = true }

// Disable turns a fact family off.
func (p *Provider) Disable(k Kind) { p.enabled[k] = false }

// Enabled reports whether kind k is on.
func (p *Provider) Enabled(k Kind) bool { return p.enabled[k] }

// Has reports whether the ground fact f holds virtually.
func (p *Provider) Has(f fact.Fact) bool {
	u := p.u
	if p.enabled[GenAxioms] && f.R == u.Gen {
		if f.S == f.T || f.T == u.Top || f.S == u.Bottom {
			return true
		}
	}
	if p.enabled[Equality] {
		switch f.R {
		case u.Eq:
			return f.S == f.T
		case u.Neq:
			return f.S != f.T
		}
	}
	if p.enabled[Math] {
		switch f.R {
		case u.Lt, u.Gt, u.Le, u.Ge:
			a, aok := u.Number(f.S)
			b, bok := u.Number(f.T)
			if !aok || !bok {
				return false
			}
			switch f.R {
			case u.Lt:
				return a < b
			case u.Gt:
				return a > b
			case u.Le:
				return a <= b
			case u.Ge:
				return a >= b
			}
		}
	}
	return false
}

// Match calls fn for every virtual fact matching the pattern
// (sym.None positions are wildcards), enumerating free positions over
// dom. When the relationship position is free, only Equality and
// GenAxioms facts with both endpoints bound are emitted — comparator
// facts with a free relationship are the caller's job to request
// explicitly (this keeps browsing output finite and meaningful).
// Iteration stops when fn returns false; Match reports completion.
func (p *Provider) Match(src, rel, tgt sym.ID, dom Domain, fn func(fact.Fact) bool) bool {
	u := p.u
	if rel == sym.None {
		// Free relationship: only with both endpoints bound.
		if src == sym.None || tgt == sym.None {
			return true
		}
		for _, r := range []sym.ID{u.Gen, u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge} {
			f := fact.Fact{S: src, R: r, T: tgt}
			if p.Has(f) && !fn(f) {
				return false
			}
		}
		return true
	}

	switch rel {
	case u.Gen:
		if !p.enabled[GenAxioms] {
			return true
		}
		return p.matchGen(src, tgt, dom, fn)
	case u.Eq:
		if !p.enabled[Equality] {
			return true
		}
		return p.matchEq(src, tgt, dom, fn)
	case u.Neq:
		if !p.enabled[Equality] {
			return true
		}
		return p.matchNeq(src, tgt, dom, fn)
	case u.Lt, u.Gt, u.Le, u.Ge:
		if !p.enabled[Math] {
			return true
		}
		return p.matchCmp(src, rel, tgt, dom, fn)
	}
	return true
}

func (p *Provider) matchGen(src, tgt sym.ID, dom Domain, fn func(fact.Fact) bool) bool {
	u := p.u
	emit := func(s, t sym.ID) bool { return fn(fact.Fact{S: s, R: u.Gen, T: t}) }
	switch {
	case src != sym.None && tgt != sym.None:
		if src == tgt || tgt == u.Top || src == u.Bottom {
			return emit(src, tgt)
		}
		return true
	case src != sym.None:
		if !emit(src, src) {
			return false
		}
		if src != u.Top && !emit(src, u.Top) {
			return false
		}
		if src == u.Bottom {
			for _, e := range dom.Entities() {
				if e != u.Bottom && !emit(u.Bottom, e) {
					return false
				}
			}
		}
		return true
	case tgt != sym.None:
		if !emit(tgt, tgt) {
			return false
		}
		if tgt != u.Bottom && !emit(u.Bottom, tgt) {
			return false
		}
		if tgt == u.Top {
			for _, e := range dom.Entities() {
				if e != u.Top && !emit(e, u.Top) {
					return false
				}
			}
		}
		return true
	default:
		for _, e := range dom.Entities() {
			if !emit(e, e) {
				return false
			}
			if e != u.Top && !emit(e, u.Top) {
				return false
			}
			if e != u.Bottom && !emit(u.Bottom, e) {
				return false
			}
		}
		return true
	}
}

func (p *Provider) matchEq(src, tgt sym.ID, dom Domain, fn func(fact.Fact) bool) bool {
	u := p.u
	switch {
	case src != sym.None && tgt != sym.None:
		if src == tgt {
			return fn(fact.Fact{S: src, R: u.Eq, T: tgt})
		}
		return true
	case src != sym.None:
		return fn(fact.Fact{S: src, R: u.Eq, T: src})
	case tgt != sym.None:
		return fn(fact.Fact{S: tgt, R: u.Eq, T: tgt})
	default:
		for _, e := range dom.Entities() {
			if !fn(fact.Fact{S: e, R: u.Eq, T: e}) {
				return false
			}
		}
		return true
	}
}

func (p *Provider) matchNeq(src, tgt sym.ID, dom Domain, fn func(fact.Fact) bool) bool {
	u := p.u
	switch {
	case src != sym.None && tgt != sym.None:
		if src != tgt {
			return fn(fact.Fact{S: src, R: u.Neq, T: tgt})
		}
		return true
	case src != sym.None:
		for _, e := range dom.Entities() {
			if e != src && !fn(fact.Fact{S: src, R: u.Neq, T: e}) {
				return false
			}
		}
		return true
	case tgt != sym.None:
		for _, e := range dom.Entities() {
			if e != tgt && !fn(fact.Fact{S: e, R: u.Neq, T: tgt}) {
				return false
			}
		}
		return true
	default:
		ents := dom.Entities()
		for _, a := range ents {
			for _, b := range ents {
				if a != b && !fn(fact.Fact{S: a, R: u.Neq, T: b}) {
					return false
				}
			}
		}
		return true
	}
}

func (p *Provider) matchCmp(src, rel, tgt sym.ID, dom Domain, fn func(fact.Fact) bool) bool {
	u := p.u
	holds := func(a, b float64) bool {
		switch rel {
		case u.Lt:
			return a < b
		case u.Gt:
			return a > b
		case u.Le:
			return a <= b
		default:
			return a >= b
		}
	}
	switch {
	case src != sym.None && tgt != sym.None:
		a, aok := u.Number(src)
		b, bok := u.Number(tgt)
		if aok && bok && holds(a, b) {
			return fn(fact.Fact{S: src, R: rel, T: tgt})
		}
		return true
	case src != sym.None:
		a, aok := u.Number(src)
		if !aok {
			return true
		}
		for _, e := range dom.Entities() {
			b, bok := u.Number(e)
			if bok && holds(a, b) && !fn(fact.Fact{S: src, R: rel, T: e}) {
				return false
			}
		}
		return true
	case tgt != sym.None:
		b, bok := u.Number(tgt)
		if !bok {
			return true
		}
		for _, e := range dom.Entities() {
			a, aok := u.Number(e)
			if aok && holds(a, b) && !fn(fact.Fact{S: e, R: rel, T: tgt}) {
				return false
			}
		}
		return true
	default:
		ents := dom.Entities()
		for _, x := range ents {
			a, aok := u.Number(x)
			if !aok {
				continue
			}
			for _, y := range ents {
				b, bok := u.Number(y)
				if bok && holds(a, b) && !fn(fact.Fact{S: x, R: rel, T: y}) {
					return false
				}
			}
		}
		return true
	}
}
