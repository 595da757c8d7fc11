package rules

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// Row exposes one row of an engine's resolved standard-rule table to
// the external table test (which needs internal/gen, and so cannot
// live in this package): each method runs one of the two production
// interpreters, or the goal-directed one over one of its two premise
// sources, over a table holding just this row, every rule enabled.
type Row struct {
	e *Engine
	i int // index into the table's rows
}

// table is a rule table holding just this row.
func (r Row) table() []stdRow { return r.e.std[r.i : r.i+1] }

var allOn = func() (on [numStdRules]bool) {
	for i := range on {
		on[i] = true
	}
	return on
}()

// TableRows returns the rows in the order every pass visits them in.
func (e *Engine) TableRows() []Row {
	out := make([]Row, len(e.std))
	for i := range out {
		out[i] = Row{e, i}
	}
	return out
}

func (r Row) String() string {
	return fmt.Sprintf("row %d (%s)", r.i, r.table()[0].rule)
}

// Rule is the standard rule the row belongs to.
func (r Row) Rule() StdRule { return r.table()[0].rule }

// Visits reports how often the table names the row.
func (r Row) Visits() (n int) {
	for _, o := range r.e.std {
		if o == r.table()[0] {
			n++
		}
	}
	return n
}

// Forward returns what the forward interpreter emits with f as a
// premise and the other premises in st, present heads included.
func (r Row) Forward(f fact.Fact, st *store.Store) []fact.Fact {
	var out []fact.Fact
	r.e.stdForward(r.table(), &allOn, f, st, func(g fact.Fact, rule StdRule, _, _ fact.Fact) {
		if rule != r.Rule() {
			panic("row emitted under the rule " + rule.String())
		}
		out = append(out, g)
	})
	return out
}

// Step is a one-step derivation: a head, the rule that concludes it
// and its premises.
type Step struct {
	Head     fact.Fact
	Rule     string
	Premises []fact.Fact
}

// Steps returns every one-step derivation the engine's active rules
// make with f as one premise and the others in st, present heads
// included: the forward interpreter over the whole table, then the
// user rules, as a closure round runs them.
func (e *Engine) Steps(f fact.Fact, st *store.Store) []Step {
	cfg := e.rs.Load()
	var out []Step
	e.stdForward(e.std, &cfg.std, f, st, func(g fact.Fact, rule StdRule, a, b fact.Fact) {
		h := hit{a: a, b: b}
		out = append(out, Step{g, rule.String(), h.premises()})
	})
	for _, r := range cfg.userRules {
		e.applyUserRule(r, f, st, func(g fact.Fact, slots []sym.ID) {
			out = append(out, Step{g, r.Name, r.premises(slots)})
		})
	}
	return out
}

// ToHead reports whether the goal-directed interpreter finds premises
// for g in st.
func (r Row) ToHead(g fact.Fact, st *store.Store) bool {
	return !r.e.goal(r.table(), &ruleset{std: allOn}, storeSource(st), g, func(hit) bool { return false })
}

// Backward returns every head the goal-directed interpreter concludes
// for the all-wildcard pattern from the bounded matcher's depth-0
// answers over the engine's base store: what MatchBounded adds at
// depth 1.
func (r Row) Backward() []fact.Fact {
	b := getBounded(r.e, &ruleset{ver: r.e.rs.Load().ver, std: allOn}, nil)
	b.shared = nil
	var out []fact.Fact
	r.e.goal(r.table(), b.cfg, source{b: b, d: 0, indiv: b.indiv}, fact.Fact{}, func(h hit) bool {
		out = append(out, h.head)
		return true
	})
	putBounded(b)
	slices.SortFunc(out, fact.Compare)
	return slices.Compact(out)
}

// BackwardAll is the raw backward enumeration of a pattern under the
// engine's own configuration: no Δ/∇ rewriting, no subgoal table.
func (e *Engine) BackwardAll(s, r, t sym.ID, depth int) []fact.Fact {
	b := getBounded(e, e.rs.Load(), nil)
	b.shared = nil
	out := slices.Clone(b.enum(s, r, t, depth))
	putBounded(b)
	return out
}

// MaxRetainedMemo is the largest per-call memo a pooled bounded
// context keeps for its next call.
const MaxRetainedMemo = maxRetainedMemo

// ColdCallMemo runs the bounded enumeration of a pattern in a pooled
// context and releases it as MatchBounded does. It reports how many
// subgoals the call memoized and whether the released context kept
// that memo map for its next call.
func (e *Engine) ColdCallMemo(s, r, t sym.ID, depth int) (memoized int, kept bool) {
	b := getBounded(e, e.rs.Load(), nil)
	b.enum(s, r, t, depth)
	memoized = len(b.memo)
	before := reflect.ValueOf(b.memo).UnsafePointer()
	b.reset() // putBounded, but for the pool
	kept = reflect.ValueOf(b.memo).UnsafePointer() == before
	boundedPool.Put(b)
	return memoized, kept
}

// AxiomFacts exposes the built-in axiom facts.
func (e *Engine) AxiomFacts() []fact.Fact { return e.axiomFacts() }

// EdgeWorlds are the stored-fact sets on which the three hand-written
// copies of the rules used to differ, or came close to: ≺ facts that
// restate a virtual axiom, a self-synonym, a two-way ≺ pair, an
// inverse declared for ≺ itself.
var EdgeWorlds = map[string][][3]string{
	"stored x≺Δ under a fact targeting x": {
		{"JOHN", "LIKES", "CAT"}, {"CAT", "isa", "TOP"}, {"TOM", "in", "CAT"},
		{"KITTEN", "isa", "CAT"}, {"CAT", "EATS", "FISH"},
	},
	"stored ∇≺x": {
		{"BOT", "isa", "CAT"}, {"CAT", "EATS", "FISH"}, {"CAT", "isa", "ANIMAL"},
		{"BOT", "isa", "TOP"}, {"TOP", "isa", "BOT"},
	},
	"stored reflexive ≺ with a member": {
		{"B", "isa", "B"}, {"M", "in", "B"}, {"B", "HAS", "X"}, {"A", "isa", "B"}, {"Y", "OWNS", "M"},
	},
	"self-synonym": {
		{"A", "syn", "A"}, {"A", "HAS", "X"}, {"M", "in", "A"}, {"A", "syn", "B"},
	},
	"two-way ≺ pair": {
		{"A", "isa", "B"}, {"B", "isa", "A"}, {"A", "HAS", "X"}, {"M", "in", "B"}, {"B", "isa", "C"},
	},
	"declared inverse of ≺": {
		{"isa", "inv", "SUBSUMES"}, {"A", "isa", "B"}, {"B", "isa", "TOP"}, {"M", "in", "A"},
		{"WORKS-FOR", "inv", "EMPLOYS"}, {"ACME", "EMPLOYS", "M"}, {"WORKS-FOR", "isa", "KNOWS"},
	},
}

// UpdateGolden is the -update flag, for the external golden tests.
var UpdateGolden = updateGolden
