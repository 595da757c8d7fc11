// Package compose implements inference by composition (§3.7): when
// the target of one fact is the source of another, an indirect
// relationship between the outer entities is implied, named by the
// chain of relationships and intermediate entities, e.g.
//
//	(TOM, ENROLLED-IN, CS100) ∧ (CS100, TAUGHT-BY, HARRY)
//	  ⇒ (TOM, ENROLLED-IN CS100 TAUGHT-BY, HARRY)
//
// Composition facts are never materialized: over a connected database
// their number grows combinatorially, which is why §6.1 introduces
// the limit(n) operator bounding the length of composition chains. A
// Composer enumerates composition facts on demand against the
// database closure (so inverted and inherited facts participate).
//
// Per §3.7 a composition must not relate an entity to itself
// (s ≠ t, "we avoid cyclical compositions"); this implementation
// additionally restricts chains to simple paths (no repeated
// intermediate entity) so that unlimited composition terminates.
package compose

import (
	"strings"

	"repro/internal/fact"
	"repro/internal/sym"
)

// Matcher is the closure-matching interface the composer traverses
// (satisfied by *rules.Engine).
type Matcher interface {
	Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool
	Universe() *fact.Universe
	Individual(rel sym.ID) bool
}

// Unlimited allows composition chains of any length (§6.1: "n = ∞
// permits unlimited composition"); chains remain simple paths.
const Unlimited = -1

// Sep joins relationship and entity names in a composed relationship
// name, following the paper's "ENROLLED-IN CS100 TAUGHT-BY" style.
const Sep = " "

// Composer enumerates composition facts on demand.
type Composer struct {
	m Matcher

	// limit is the maximum number of base facts per chain, the
	// paper's limit(n): n=1 disables composition (every fact is its
	// own chain), n=2 composes base facts but composed facts cannot
	// participate further, Unlimited removes the bound (§6.1).
	limit int

	// MaxResults caps the number of paths enumerated per query as an
	// engineering safety valve on dense graphs. 0 means no cap.
	MaxResults int
}

// New returns a composer over m with the chain limit set to n.
func New(m Matcher, n int) *Composer {
	return &Composer{m: m, limit: n, MaxResults: 0}
}

// SetLimit sets the maximum composition chain length (§6.1 limit(n)).
func (c *Composer) SetLimit(n int) { c.limit = n }

// Limit returns the current chain limit.
func (c *Composer) Limit() int { return c.limit }

// Enabled reports whether any composition can be inferred under the
// current limit.
func (c *Composer) Enabled() bool { return c.limit == Unlimited || c.limit >= 2 }

// Path is a composition chain of two or more composable facts.
type Path struct {
	Steps []fact.Fact
}

// Source returns the source entity of the composed fact.
func (p Path) Source() sym.ID { return p.Steps[0].S }

// Target returns the target entity of the composed fact.
func (p Path) Target() sym.ID { return p.Steps[len(p.Steps)-1].T }

// RelName renders the composed relationship name:
// r₁ e₁ r₂ e₂ … rₖ, where eᵢ are the intermediate entities.
func (p Path) RelName(u *fact.Universe) string {
	var b strings.Builder
	for i, f := range p.Steps {
		if i > 0 {
			b.WriteString(Sep)
			b.WriteString(u.Name(f.S))
			b.WriteString(Sep)
		}
		b.WriteString(u.Name(f.R))
	}
	return b.String()
}

// RelEntity interns the composed relationship name as an entity, so
// composed facts can flow through the ordinary fact machinery (e.g.
// bind a relationship variable in a template query).
func (p Path) RelEntity(u *fact.Universe) sym.ID {
	return u.Intern(p.RelName(u))
}

// Fact returns the composed fact (source, composed-rel, target).
func (p Path) Fact(u *fact.Universe) fact.Fact {
	return fact.Fact{S: p.Source(), R: p.RelEntity(u), T: p.Target()}
}

// Len returns the number of base facts in the chain.
func (p Path) Len() int { return len(p.Steps) }

// Paths enumerates every composition chain from src to tgt (both
// must be concrete entities) within the current limit: the §4.1
// "different associations between two entities" browsing tool.
// Chains have at least two steps; direct facts are not included
// (they are ordinary matches, not compositions).
func (c *Composer) Paths(src, tgt sym.ID) []Path {
	if !c.Enabled() || src == sym.None || tgt == sym.None || src == tgt {
		return nil
	}
	var out []Path
	c.dfs(src, tgt, []fact.Fact{}, map[sym.ID]bool{src: true}, &out)
	return out
}

// PathsFrom enumerates composition chains starting at src ending
// anywhere, within the current limit.
func (c *Composer) PathsFrom(src sym.ID) []Path {
	if !c.Enabled() || src == sym.None {
		return nil
	}
	var out []Path
	c.dfs(src, sym.None, []fact.Fact{}, map[sym.ID]bool{src: true}, &out)
	return out
}

func (c *Composer) dfs(at, tgt sym.ID, chain []fact.Fact, visited map[sym.ID]bool, out *[]Path) {
	if c.MaxResults > 0 && len(*out) >= c.MaxResults {
		return
	}
	if c.limit != Unlimited && len(chain) >= c.limit {
		return
	}
	u := c.m.Universe()
	var edges []fact.Fact
	c.m.Match(at, sym.None, sym.None, func(f fact.Fact) bool {
		if !c.m.Individual(f.R) {
			return true // compose over individual relationships only
		}
		if f.T == f.S || u.Special(f.T) {
			return true
		}
		edges = append(edges, f)
		return true
	})
	for _, f := range edges {
		if visited[f.T] {
			continue
		}
		next := append(chain, f)
		if len(next) >= 2 && (tgt == sym.None || f.T == tgt) {
			cp := make([]fact.Fact, len(next))
			copy(cp, next)
			*out = append(*out, Path{Steps: cp})
			if c.MaxResults > 0 && len(*out) >= c.MaxResults {
				return
			}
		}
		if tgt != sym.None && f.T == tgt {
			continue // endpoint reached; extending past it cannot return (simple path)
		}
		visited[f.T] = true
		c.dfs(f.T, tgt, next, visited, out)
		visited[f.T] = false
	}
}

// Composed reports whether rel can name a composed relationship: Match
// yields nothing for a bound relationship that cannot.
func (c *Composer) Composed(rel sym.ID) bool {
	return c.Enabled() && strings.Contains(c.m.Universe().Name(rel), Sep)
}

// Match enumerates composed facts matching the pattern. A bound
// relationship is interpreted as a composed relationship name and
// verified; an unbound relationship enumerates paths. Composed facts
// require at least a bound source or target (enumerating every
// composition in the database is refused — it is the combinatorial
// set §6.1 warns about; use PathsFrom per entity instead).
func (c *Composer) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	if !c.Enabled() {
		return true
	}
	if rel != sym.None && !c.Composed(rel) {
		return true
	}
	u := c.m.Universe()
	var paths []Path
	switch {
	case src != sym.None && tgt != sym.None:
		paths = c.Paths(src, tgt)
	case src != sym.None:
		paths = c.PathsFrom(src)
	case tgt != sym.None:
		paths = c.pathsInto(tgt)
	default:
		return true
	}
	for _, p := range paths {
		f := p.Fact(u)
		if rel != sym.None && f.R != rel {
			continue
		}
		if !fn(f) {
			return false
		}
	}
	return true
}

// pathsInto enumerates composition chains ending at tgt by a reverse
// DFS over incoming closure edges.
func (c *Composer) pathsInto(tgt sym.ID) []Path {
	if !c.Enabled() || tgt == sym.None {
		return nil
	}
	var out []Path
	c.rdfs(tgt, nil, map[sym.ID]bool{tgt: true}, &out)
	return out
}

// rdfs extends the chain backwards: new facts are prepended so that
// chain[0] is always the earliest fact of the composition.
func (c *Composer) rdfs(at sym.ID, chain []fact.Fact, visited map[sym.ID]bool, out *[]Path) {
	if c.MaxResults > 0 && len(*out) >= c.MaxResults {
		return
	}
	if c.limit != Unlimited && len(chain) >= c.limit {
		return
	}
	u := c.m.Universe()
	var edges []fact.Fact
	c.m.Match(sym.None, sym.None, at, func(f fact.Fact) bool {
		if !c.m.Individual(f.R) || f.S == f.T || u.Special(f.S) {
			return true
		}
		edges = append(edges, f)
		return true
	})
	for _, f := range edges {
		if visited[f.S] {
			continue
		}
		next := make([]fact.Fact, 0, len(chain)+1)
		next = append(next, f)
		next = append(next, chain...)
		if len(next) >= 2 {
			cp := make([]fact.Fact, len(next))
			copy(cp, next)
			*out = append(*out, Path{Steps: cp})
			if c.MaxResults > 0 && len(*out) >= c.MaxResults {
				return
			}
		}
		visited[f.S] = true
		c.rdfs(f.S, next, visited, out)
		visited[f.S] = false
	}
}
