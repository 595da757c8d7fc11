// Package browse implements navigation (§4.1), the basic browsing
// style for users who do not know what to look for or do not know
// enough about the database to formulate a standard query.
//
// Navigation is an iterative process of template retrievals: the user
// examines the neighborhood of an entity, picks an entity from that
// neighborhood, retrieves its neighborhood, and so on. Because
// navigation queries are a restricted form of standard queries,
// navigation can be interleaved freely with standard querying.
//
// A Browser is stateless and safe for concurrent use: every
// navigation step reads the engine's published closure snapshot,
// which is sealed (immutable), so N simultaneous browsing sessions
// share one materialized closure without locking.
package browse

import (
	"slices"
	"strings"

	"repro/internal/compose"
	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sym"
	"repro/internal/tabular"
)

// Browser answers navigation queries against a database closure.
// depth selects the retrieval strategy: 0 reads the materialized
// closure snapshot; > 0 answers each template by depth-bounded
// on-demand inference instead (never materializing), with repeated
// subgoals served from the engine's cross-query subgoal cache — the
// right trade for sparse browsing over a large, rarely-queried
// database (DESIGN.md E7).
type Browser struct {
	eng   *rules.Engine
	comp  *compose.Composer
	depth int

	// Navigation counters (SetMetrics); nil-safe no-ops when unwired.
	neighborhoods *obs.Counter
	betweens      *obs.Counter
}

// SetMetrics registers the browser's navigation counters in r. Call
// before sharing the browser across goroutines.
func (b *Browser) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	b.neighborhoods = r.Counter("lsdb_browse_steps_total", "kind", "neighborhood")
	b.betweens = r.Counter("lsdb_browse_steps_total", "kind", "between")
}

// New returns a browser over the engine's materialized closure. comp
// may be nil to browse without composition.
func New(eng *rules.Engine, comp *compose.Composer) *Browser {
	return &Browser{eng: eng, comp: comp}
}

// NewOnDemand returns a browser that answers navigation templates by
// bounded on-demand inference at the given derivation depth. All
// sessions over the same engine share its subgoal cache, so a
// browsing workload pays each subgoal's derivation once per database
// version, not once per query.
func NewOnDemand(eng *rules.Engine, comp *compose.Composer, depth int) *Browser {
	if depth < 1 {
		depth = 1
	}
	return &Browser{eng: eng, comp: comp, depth: depth}
}

// match dispatches one navigation template to the browser's retrieval
// strategy.
func (b *Browser) match(s, r, t sym.ID, fn func(fact.Fact) bool) {
	if b.depth > 0 {
		b.eng.MatchBounded(s, r, t, b.depth, fn)
		return
	}
	b.eng.Match(s, r, t, fn)
}

// RelGroup groups the neighbors of an entity reached through one
// relationship, as one column of the §4.1 navigation tables.
type RelGroup struct {
	Rel      sym.ID
	Entities []sym.ID
}

// Neighborhood is the answer to the navigation template (E,*,*)
// combined with (*,*,E): everything the database relates to E. The
// layout follows the paper's tables: the first column lists the
// classes of E (its memberships and generalizations), then one column
// per outgoing relationship; incoming facts are kept separately.
type Neighborhood struct {
	Entity  sym.ID
	Classes []sym.ID   // targets of (E,∈,x) and (E,≺,x)
	Out     []RelGroup // (E, r, x) for ordinary relationships r
	In      []RelGroup // (x, r, E)
}

// Degree returns the total number of neighbor entries.
func (n *Neighborhood) Degree() int {
	total := len(n.Classes)
	for _, g := range n.Out {
		total += len(g.Entities)
	}
	for _, g := range n.In {
		total += len(g.Entities)
	}
	return total
}

// Neighborhood evaluates the templates (e,*,*) and (*,*,e) against
// the closure and groups the answers by relationship. Virtual noise
// (reflexive generalizations, Δ/∇ endpoints, = and ≠ facts) is
// suppressed: the paper's tables show none of it.
func (b *Browser) Neighborhood(e sym.ID) *Neighborhood {
	b.neighborhoods.Inc()
	u := b.eng.Universe()
	n := &Neighborhood{Entity: e}

	classSet := make(map[sym.ID]struct{})
	outGroups := make(map[sym.ID]map[sym.ID]struct{})
	inGroups := make(map[sym.ID]map[sym.ID]struct{})

	b.match(e, sym.None, sym.None, func(f fact.Fact) bool {
		if b.noise(f) {
			return true
		}
		if f.R == u.Member || f.R == u.Gen {
			if f.T != e {
				classSet[f.T] = struct{}{}
			}
			return true
		}
		g := outGroups[f.R]
		if g == nil {
			g = make(map[sym.ID]struct{})
			outGroups[f.R] = g
		}
		g[f.T] = struct{}{}
		return true
	})
	b.match(sym.None, sym.None, e, func(f fact.Fact) bool {
		if b.noise(f) || f.S == e {
			return true
		}
		g := inGroups[f.R]
		if g == nil {
			g = make(map[sym.ID]struct{})
			inGroups[f.R] = g
		}
		g[f.S] = struct{}{}
		return true
	})

	n.Classes = sortedIDs(u, classSet)
	n.Out = groupList(u, outGroups)
	n.In = groupList(u, inGroups)
	return n
}

// noise reports facts suppressed from navigation output: virtual
// mathematics, equality, reflexive or Δ/∇ generalizations. They are
// part of the closure (queries can use them) but would flood every
// neighborhood table.
func (b *Browser) noise(f fact.Fact) bool {
	u := b.eng.Universe()
	switch f.R {
	case u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge:
		return true
	case u.Gen:
		return f.S == f.T || f.T == u.Top || f.S == u.Bottom
	}
	if f.S == u.Top || f.T == u.Top || f.S == u.Bottom || f.T == u.Bottom {
		return true
	}
	return false
}

func sortedIDs(u *fact.Universe, set map[sym.ID]struct{}) []sym.ID {
	out := make([]sym.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sortByName(u, out, func(id sym.ID) sym.ID { return id })
	return out
}

func groupList(u *fact.Universe, groups map[sym.ID]map[sym.ID]struct{}) []RelGroup {
	out := make([]RelGroup, 0, len(groups))
	for rel, set := range groups {
		out = append(out, RelGroup{Rel: rel, Entities: sortedIDs(u, set)})
	}
	sortByName(u, out, func(g RelGroup) sym.ID { return g.Rel })
	return out
}

// sortByName orders items by the name of key(item), looking each name
// up once rather than twice per comparison: every lookup takes the
// symbol table's lock. Keys are distinct and names are unique, so the
// order is total.
func sortByName[T any](u *fact.Universe, items []T, key func(T) sym.ID) {
	type named struct {
		name string
		item T
	}
	byName := make([]named, len(items))
	for i, it := range items {
		byName[i] = named{u.Name(key(it)), it}
	}
	slices.SortFunc(byName, func(a, b named) int { return strings.Compare(a.name, b.name) })
	for i := range byName {
		items[i] = byName[i].item
	}
}

// Table renders the neighborhood in the paper's §4.1 layout: the
// entity's classes under a "E**" header, then one column per outgoing
// relationship.
func (n *Neighborhood) Table(u *fact.Universe) *tabular.Columnar {
	t := &tabular.Columnar{}
	t.Add(u.Name(n.Entity)+"**", names(u, n.Classes)...)
	for _, g := range n.Out {
		t.Add(u.Name(g.Rel), names(u, g.Entities)...)
	}
	return t
}

// InTable renders the incoming half of the neighborhood: one column
// per relationship whose facts target the entity.
func (n *Neighborhood) InTable(u *fact.Universe) *tabular.Columnar {
	t := &tabular.Columnar{}
	t.Add("**" + u.Name(n.Entity))
	for _, g := range n.In {
		t.Add(u.Name(g.Rel), names(u, g.Entities)...)
	}
	return t
}

func names(u *fact.Universe, ids []sym.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.Name(id)
	}
	return out
}

// Association is one way two entities are related: either a direct
// closure fact or a composition chain (§4.1: "the user may enter any
// two source and target entities, to obtain all the different
// associations between them").
type Association struct {
	Rel  sym.ID
	Path *compose.Path // non-nil for composed associations
}

// Between evaluates the navigation template (src, *, tgt): every
// direct relationship and, when composition is enabled, every
// composition chain from src to tgt within the current limit.
func (b *Browser) Between(src, tgt sym.ID) []Association {
	b.betweens.Inc()
	u := b.eng.Universe()
	var out []Association
	seen := make(map[sym.ID]struct{})
	b.match(src, sym.None, tgt, func(f fact.Fact) bool {
		if b.noise(f) {
			return true
		}
		if _, dup := seen[f.R]; dup {
			return true
		}
		seen[f.R] = struct{}{}
		out = append(out, Association{Rel: f.R})
		return true
	})
	if b.comp != nil {
		for _, p := range b.comp.Paths(src, tgt) {
			p := p
			rel := p.RelEntity(u)
			if _, dup := seen[rel]; dup {
				continue
			}
			seen[rel] = struct{}{}
			out = append(out, Association{Rel: rel, Path: &p})
		}
	}
	sortByName(u, out, func(a Association) sym.ID { return a.Rel })
	return out
}

// BetweenTable renders Between in the paper's third §4.1 table style:
// a single column headed "SRC+TGT" listing every association.
func (b *Browser) BetweenTable(src, tgt sym.ID) *tabular.Columnar {
	u := b.eng.Universe()
	assocs := b.Between(src, tgt)
	items := make([]string, len(assocs))
	for i, a := range assocs {
		items[i] = u.Name(a.Rel)
	}
	t := &tabular.Columnar{}
	t.Add(u.Name(src)+"+"+u.Name(tgt), items...)
	return t
}
