// Package query implements the standard retrieval language of §2.7: a
// predicate logic in which templates are the atomic formulas and
// formulas are built with conjunction, disjunction and existential
// and universal quantifiers. There is no negation operator — negative
// assertions use complementary relationships such as ≠ (§2.7).
//
// A query is a formula; its free variables are the output columns.
// A closed formula is a proposition whose value is true or false.
package query

import (
	"fmt"
	"strings"

	"repro/internal/fact"
)

// Formula is a well-formed formula of the retrieval language.
type Formula interface {
	// Clone returns a deep copy.
	Clone() Formula
	// walk visits the formula tree in preorder; return false to stop.
	walk(fn func(Formula) bool) bool
	format(q *Query, b *strings.Builder)
}

// Atom is a template predicate: it is satisfied when the template
// matches a non-empty set of facts in the database closure.
type Atom struct {
	Tpl fact.Template
}

// And is conjunction.
type And struct {
	L, R Formula
}

// Or is disjunction.
type Or struct {
	L, R Formula
}

// Exists is existential quantification over V.
type Exists struct {
	V    fact.Var
	Body Formula
}

// Forall is universal quantification over V, read over the active
// domain (every entity occurring in the database closure).
type Forall struct {
	V    fact.Var
	Body Formula
}

// Clone implementations.

func (a *Atom) Clone() Formula   { c := *a; return &c }
func (a *And) Clone() Formula    { return &And{L: a.L.Clone(), R: a.R.Clone()} }
func (o *Or) Clone() Formula     { return &Or{L: o.L.Clone(), R: o.R.Clone()} }
func (e *Exists) Clone() Formula { return &Exists{V: e.V, Body: e.Body.Clone()} }
func (f *Forall) Clone() Formula { return &Forall{V: f.V, Body: f.Body.Clone()} }

func (a *Atom) walk(fn func(Formula) bool) bool { return fn(a) }
func (a *And) walk(fn func(Formula) bool) bool {
	return fn(a) && a.L.walk(fn) && a.R.walk(fn)
}
func (o *Or) walk(fn func(Formula) bool) bool {
	return fn(o) && o.L.walk(fn) && o.R.walk(fn)
}
func (e *Exists) walk(fn func(Formula) bool) bool { return fn(e) && e.Body.walk(fn) }
func (f *Forall) walk(fn func(Formula) bool) bool { return fn(f) && f.Body.walk(fn) }

// Query is a formula together with its variable naming. Free
// variables (those not bound by a quantifier) are the outputs, in
// first-occurrence order.
type Query struct {
	Root Formula
	// Names maps every variable of the formula to its surface name.
	Names map[fact.Var]string
	// Free lists the free variables in output order.
	Free []fact.Var

	u *fact.Universe
}

// NewQuery assembles a query from a formula, computing free
// variables. names provides surface names; missing entries are
// rendered as ?vN.
func NewQuery(u *fact.Universe, root Formula, names map[fact.Var]string) *Query {
	q := &Query{Root: root, Names: names, u: u}
	if q.Names == nil {
		q.Names = make(map[fact.Var]string)
	}
	q.Free = freeVars(root)
	return q
}

// Universe returns the entity universe the query was parsed against.
func (q *Query) Universe() *fact.Universe { return q.u }

// freeVars returns the free variables of f in first-occurrence order.
func freeVars(f Formula) []fact.Var {
	var out []fact.Var
	bound := make(map[fact.Var]int)
	var visit func(Formula)
	visit = func(f Formula) {
		switch n := f.(type) {
		case *Atom:
			var vs []fact.Var
			vs = n.Tpl.Vars(vs)
			for _, v := range vs {
				if bound[v] > 0 {
					continue
				}
				dup := false
				for _, have := range out {
					if have == v {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, v)
				}
			}
		case *And:
			visit(n.L)
			visit(n.R)
		case *Or:
			visit(n.L)
			visit(n.R)
		case *Exists:
			bound[n.V]++
			visit(n.Body)
			bound[n.V]--
		case *Forall:
			bound[n.V]++
			visit(n.Body)
			bound[n.V]--
		}
	}
	visit(f)
	return out
}

// IsProposition reports whether the query is a closed formula (§2.7).
func (q *Query) IsProposition() bool { return len(q.Free) == 0 }

// VarName returns the surface name of v.
func (q *Query) VarName(v fact.Var) string {
	if n, ok := q.Names[v]; ok {
		return n
	}
	return fmt.Sprintf("v%d", v)
}

// String renders the query in the surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	q.Root.format(q, &b)
	return b.String()
}

func (q *Query) term(t fact.Term, b *strings.Builder) {
	if t.IsVar() {
		b.WriteString("?")
		b.WriteString(q.VarName(t.Variable))
		return
	}
	name := q.u.Name(t.Entity)
	if needsQuoting(name) {
		b.WriteString("'")
		for _, r := range name {
			if r == '\'' || r == '\\' {
				b.WriteString("\\")
			}
			b.WriteRune(r)
		}
		b.WriteString("'")
		return
	}
	b.WriteString(name)
}

func (a *Atom) format(q *Query, b *strings.Builder) {
	b.WriteString("(")
	q.term(a.Tpl.S, b)
	b.WriteString(", ")
	q.term(a.Tpl.R, b)
	b.WriteString(", ")
	q.term(a.Tpl.T, b)
	b.WriteString(")")
}

// formatChild renders a subformula, bracketing quantifiers: their dot
// scope extends maximally right, so "exists ?x . A & B" would
// otherwise re-parse with B inside the quantifier.
func formatChild(f Formula, q *Query, b *strings.Builder) {
	switch f.(type) {
	case *Exists, *Forall:
		b.WriteString("[")
		f.format(q, b)
		b.WriteString("]")
	default:
		f.format(q, b)
	}
}

func (a *And) format(q *Query, b *strings.Builder) {
	formatChild(a.L, q, b)
	b.WriteString(" & ")
	formatChild(a.R, q, b)
}

func (o *Or) format(q *Query, b *strings.Builder) {
	b.WriteString("[")
	formatChild(o.L, q, b)
	b.WriteString(" | ")
	formatChild(o.R, q, b)
	b.WriteString("]")
}

func (e *Exists) format(q *Query, b *strings.Builder) {
	b.WriteString("exists ?")
	b.WriteString(q.VarName(e.V))
	b.WriteString(" . [")
	e.Body.format(q, b)
	b.WriteString("]")
}

func (f *Forall) format(q *Query, b *strings.Builder) {
	b.WriteString("forall ?")
	b.WriteString(q.VarName(f.V))
	b.WriteString(" . [")
	f.Body.format(q, b)
	b.WriteString("]")
}

// needsQuoting reports whether an entity name cannot be rendered as a
// bare word: it must consist of word runes (with interior dots only
// between word runes, matching the lexer) and must not collide with a
// keyword.
func needsQuoting(name string) bool {
	switch strings.ToLower(name) {
	case "and", "or", "exists", "forall":
		return true
	}
	runes := []rune(name)
	for i, r := range runes {
		if r == '.' {
			if i == 0 || i == len(runes)-1 || !isWordRune(runes[i-1]) || !isWordRune(runes[i+1]) {
				return true
			}
			continue
		}
		if !isWordRune(r) {
			return true
		}
	}
	return false
}

// Walk visits every node of f in preorder; fn returning false stops
// the traversal.
func Walk(f Formula, fn func(Formula) bool) {
	f.walk(fn)
}

// Atoms returns every atom of the formula in syntactic order.
func (q *Query) Atoms() []*Atom {
	var out []*Atom
	q.Root.walk(func(f Formula) bool {
		if a, ok := f.(*Atom); ok {
			out = append(out, a)
		}
		return true
	})
	return out
}

// MaxVar returns the largest variable index used in the query, so
// callers can mint fresh variables.
func (q *Query) MaxVar() fact.Var {
	var hi fact.Var
	q.Root.walk(func(f Formula) bool {
		switch n := f.(type) {
		case *Atom:
			hi = max(hi, n.Tpl.S.Variable, n.Tpl.R.Variable, n.Tpl.T.Variable)
		case *Exists:
			hi = max(hi, n.V)
		case *Forall:
			hi = max(hi, n.V)
		}
		return true
	})
	return hi
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	names := make(map[fact.Var]string, len(q.Names))
	for k, v := range q.Names {
		names[k] = v
	}
	c := &Query{Root: q.Root.Clone(), Names: names, u: q.u}
	c.Free = append([]fact.Var(nil), q.Free...)
	return c
}
