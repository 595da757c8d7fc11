// Package ops implements the retrieval operators of §6.1, defined on
// top of the standard query language: try (start-up information for
// navigation), relation (structured non-1NF views over the heap of
// facts), and thin wrappers for include/exclude (rule toggling) and
// limit (composition chains).
package ops

import (
	"fmt"
	"sort"

	"repro/benchmark/ref/compose"
	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/rules"
	"repro/benchmark/ref/sym"
	"repro/benchmark/ref/tabular"
)

// Try returns every closure fact that includes the entity in any
// position (§6.1: implemented with the standard query
// (e,y,z) ∨ (x,e,z) ∨ (x,y,e)). With a couple of tries, a user
// completely unfamiliar with the database can pick a navigation
// starting point.
func Try(eng *rules.Engine, e sym.ID) []fact.Fact {
	u := eng.Universe()
	seen := make(map[fact.Fact]struct{})
	var out []fact.Fact
	keep := func(f fact.Fact) bool {
		// Suppress virtual noise exactly as navigation does.
		switch f.R {
		case u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge:
			return true
		case u.Gen:
			if f.S == f.T || f.T == u.Top || f.S == u.Bottom {
				return true
			}
		}
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			out = append(out, f)
		}
		return true
	}
	eng.Match(e, sym.None, sym.None, keep)
	eng.Match(sym.None, e, sym.None, keep)
	eng.Match(sym.None, sym.None, e, keep)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		an := u.Name(a.S) + u.Name(a.R) + u.Name(a.T)
		bn := u.Name(b.S) + u.Name(b.R) + u.Name(b.T)
		return an < bn
	})
	return out
}

// Include enables a standard inference rule (§6.1 include(rule)).
func Include(eng *rules.Engine, name string) error {
	r, ok := rules.StdRuleByName(name)
	if !ok {
		return fmt.Errorf("ops: unknown standard rule %q", name)
	}
	eng.Include(r)
	return nil
}

// Exclude disables a standard inference rule (§6.1 exclude(rule)).
func Exclude(eng *rules.Engine, name string) error {
	r, ok := rules.StdRuleByName(name)
	if !ok {
		return fmt.Errorf("ops: unknown standard rule %q", name)
	}
	eng.Exclude(r)
	return nil
}

// Limit sets the bound on composition chain length (§6.1 limit(n)).
func Limit(c *compose.Composer, n int) {
	c.SetLimit(n)
}

// RelationAttr is one (relationship, target class) column of a
// relation view.
type RelationAttr struct {
	Rel   sym.ID
	Class sym.ID
}

// Relation implements the §6.1 operator
// relation(s, r₁ t₁, …, rₘ tₘ): it returns a tabulated view whose
// first column holds the instances y of class s, and whose i-th
// attribute column holds every entity z with (y, rᵢ, z) in the
// closure and (z, ∈, tᵢ). The result is not necessarily in first
// normal form — attribute cells may hold any number of entities,
// including none.
func Relation(eng *rules.Engine, class sym.ID, attrs ...RelationAttr) *tabular.Rows {
	u := eng.Universe()
	t := &tabular.Rows{}
	t.Headers = append(t.Headers, u.Name(class))
	for _, a := range attrs {
		t.Headers = append(t.Headers, u.Name(a.Rel)+" "+u.Name(a.Class))
	}

	var instances []sym.ID
	seen := make(map[sym.ID]struct{})
	eng.Match(sym.None, u.Member, class, func(f fact.Fact) bool {
		if _, dup := seen[f.S]; !dup {
			seen[f.S] = struct{}{}
			instances = append(instances, f.S)
		}
		return true
	})
	sort.Slice(instances, func(i, j int) bool { return u.Name(instances[i]) < u.Name(instances[j]) })

	for _, y := range instances {
		row := make([][]string, 0, 1+len(attrs))
		row = append(row, []string{u.Name(y)})
		for _, a := range attrs {
			var vals []string
			vseen := make(map[sym.ID]struct{})
			eng.Match(y, a.Rel, sym.None, func(f fact.Fact) bool {
				z := f.T
				if _, dup := vseen[z]; dup {
					return true
				}
				if !eng.Has(fact.Fact{S: z, R: u.Member, T: a.Class}) {
					return true
				}
				vseen[z] = struct{}{}
				vals = append(vals, u.Name(z))
				return true
			})
			sort.Strings(vals)
			row = append(row, vals)
		}
		t.AddRow(row...)
	}
	return t
}
