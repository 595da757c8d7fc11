package browse

import (
	"fmt"
	"sort"
	"strings"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/sym"
)

// Session tracks an interactive navigation process (§4.1): the user
// examines a neighborhood, picks an entity from it, examines that
// entity's neighborhood, and so on. The session keeps the trail so
// the user can back up, and remembers every entity seen so tools can
// suggest unexplored neighbors.
type Session struct {
	b     *Browser
	trail []sym.ID
	seen  map[sym.ID]int // entity → times it appeared in a neighborhood
}

// NewSession starts a navigation session.
func NewSession(b *Browser) *Session {
	return &Session{b: b, seen: make(map[sym.ID]int)}
}

// Visit moves the session to entity and returns its neighborhood.
func (s *Session) Visit(entity sym.ID) *Neighborhood {
	s.trail = append(s.trail, entity)
	n := s.b.Neighborhood(entity)
	for _, c := range n.Classes {
		s.seen[c]++
	}
	for _, g := range n.Out {
		for _, e := range g.Entities {
			s.seen[e]++
		}
	}
	for _, g := range n.In {
		for _, e := range g.Entities {
			s.seen[e]++
		}
	}
	return n
}

// Back pops the current position and returns the previous entity's
// neighborhood, or nil when the trail is exhausted.
func (s *Session) Back() *Neighborhood {
	if len(s.trail) < 2 {
		if len(s.trail) == 1 {
			s.trail = s.trail[:0]
		}
		return nil
	}
	s.trail = s.trail[:len(s.trail)-1]
	return s.b.Neighborhood(s.trail[len(s.trail)-1])
}

// Here returns the current entity, or (sym.None, false) before the
// first Visit.
func (s *Session) Here() (sym.ID, bool) {
	if len(s.trail) == 0 {
		return sym.None, false
	}
	return s.trail[len(s.trail)-1], true
}

// Trail returns the visited entities in order.
func (s *Session) Trail() []sym.ID {
	return append([]sym.ID(nil), s.trail...)
}

// Breadcrumbs renders the trail as "JOHN > PC#9-WAM > MOZART".
func (s *Session) Breadcrumbs(u *fact.Universe) string {
	names := make([]string, len(s.trail))
	for i, id := range s.trail {
		names[i] = u.Name(id)
	}
	return strings.Join(names, " > ")
}

// Unexplored returns entities that appeared in visited neighborhoods
// but have not themselves been visited, most frequently seen first —
// candidates for the next navigation step.
func (s *Session) Unexplored(u *fact.Universe) []sym.ID {
	visited := make(map[sym.ID]bool, len(s.trail))
	for _, id := range s.trail {
		visited[id] = true
	}
	var out []sym.ID
	for id := range s.seen {
		if !visited[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if s.seen[out[i]] != s.seen[out[j]] {
			return s.seen[out[i]] > s.seen[out[j]]
		}
		return u.Name(out[i]) < u.Name(out[j])
	})
	return out
}

// Dot renders the subgraph induced by the visited entities and their
// direct closure facts in Graphviz DOT format, for visualizing where
// a browsing session has been.
func (s *Session) Dot(u *fact.Universe) string {
	var b strings.Builder
	b.WriteString("digraph browse {\n  rankdir=LR;\n")
	visited := make(map[sym.ID]bool, len(s.trail))
	for _, id := range s.trail {
		visited[id] = true
	}
	for _, id := range s.trail {
		fmt.Fprintf(&b, "  %q [style=filled];\n", u.Name(id))
	}
	edges := make(map[string]bool)
	for _, id := range s.trail {
		s.b.match(id, sym.None, sym.None, func(f fact.Fact) bool {
			if s.b.noise(f) || !visited[f.T] {
				return true
			}
			line := fmt.Sprintf("  %q -> %q [label=%q];\n",
				u.Name(f.S), u.Name(f.T), u.Name(f.R))
			if !edges[line] {
				edges[line] = true
				b.WriteString(line)
			}
			return true
		})
	}
	b.WriteString("}\n")
	return b.String()
}
