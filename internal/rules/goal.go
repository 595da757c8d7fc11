package rules

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sym"
)

// The goal-directed interpreter of the rule table. Given a goal — a
// fact, or a pattern with sym.None wildcards — it finds every one-step
// derivation of a fact matching it, reading each rule from the head:
// the premises a derivation needs are asked for with the goal's
// constants in place. Where the premises come from is the caller's
// choice (source):
//
//   - a store: delete propagation asks whether a fact still has a
//     derivation from the surviving facts (derive1), and Explain lists
//     a fact's derivations from the closure;
//   - the bounded matcher's answers one depth down: enum concludes the
//     facts derivable within d steps from those derivable within d-1.

// source is where the goal-directed interpreter reads premises from:
// the facts of st plus, for user-rule bodies, the virtual facts; or,
// when b is set, the facts b derives within d steps. It is one struct
// that branches once per premise pattern, not an interface or a type
// parameter, so that the bounded matcher's loops range over enum's
// answers with no call per fact: a callback per fact made cold
// bounded queries on gen Medium about 8 % slower (2-core VM).
type source struct {
	st  *store.Store
	buf *[2][]fact.Fact // st's matches, one buffer per loop level
	b   *bounded
	d   int

	indiv map[sym.ID]bool // Engine.Individual, read once per relationship
}

// storeSource returns a source over the facts of st.
func storeSource(st *store.Store) source {
	return source{st: st, buf: new([2][]fact.Fact), indiv: make(map[sym.ID]bool)}
}

// facts returns the premises matching pattern p. A store source
// collects them into its buffer for loop level lvl, which the next call
// at that level reuses; the bounded source hands out its answers as
// they are, so its loops call nothing per fact.
func (src source) facts(lvl int, p fact.Fact) []fact.Fact {
	if src.b != nil {
		return src.b.enum(p.S, p.R, p.T, src.d)
	}
	buf := src.buf[lvl][:0]
	src.st.Match(p.S, p.R, p.T, func(f fact.Fact) bool {
		buf = append(buf, f)
		return true
	})
	src.buf[lvl] = buf
	return buf
}

// individual is Engine.Individual(rel), a base-store lookup the
// interpreter would otherwise make for every data fact it enumerates:
// the source keeps each relationship's answer.
func (src source) individual(e *Engine, rel sym.ID) bool {
	indiv, ok := src.indiv[rel]
	if !ok {
		indiv = e.Individual(rel)
		src.indiv[rel] = indiv
	}
	return indiv
}

// isData reports whether d can be row's data premise.
func (src source) isData(e *Engine, row *stdRow, d fact.Fact) bool {
	return row.takesData(d.R, row.indiv && src.individual(e, d.R)) && !e.virtualGen(d)
}

// join is the Matcher user-rule bodies join against.
func (src source) join(e *Engine) query.Matcher {
	if src.b == nil {
		return storeEval{e: e, derived: src.st}
	}
	return boundedEval{b: src.b, d: src.d}
}

// hit is one derivation the goal-directed interpreter finds: its head,
// its rule, and its premises — a and b for a standard rule (b is the
// zero Fact for a row with one premise), the body under slots for a
// user rule.
type hit struct {
	head  fact.Fact
	rule  uint32 // the StdRule, or userRule
	user  *Rule
	slots []sym.ID
	a, b  fact.Fact
}

// why names the rule of the derivation as provenance does.
func (h *hit) why() string {
	if h.user != nil {
		return h.user.Name
	}
	return stdRuleNames[h.rule]
}

// premises lists the derivation's premises.
func (h *hit) premises() []fact.Fact {
	if h.user != nil {
		return h.user.premises(h.slots)
	}
	if h.b == (fact.Fact{}) {
		return []fact.Fact{h.a}
	}
	return []fact.Fact{h.a, h.b}
}

// goal calls emit for every one-step derivation of a fact matching g
// that the enabled rules have from premises in src, the standard rows
// in the order of rows and then the user rules, until emit returns
// false; it reports whether it ran to the end.
func (e *Engine) goal(rows []stdRow, cfg *ruleset, src source, g fact.Fact, emit func(hit) bool) bool {
	for i := range rows {
		row := &rows[i]
		more := true
		switch {
		case !cfg.std[row.rule]:
		case row.hop():
			more = e.hopGoal(row, src, g, emit)
		case g.R == sym.None || g.R == row.head:
			more = e.unaryGoal(row, src, g, emit)
		}
		if !more {
			return false
		}
	}

	// User rules: any head atom may match g. Join reorders the body in
	// place; rules are shared across goroutines, so it joins a private
	// copy.
	for _, r := range cfg.userRules {
		var slots []sym.ID
		var body []fact.Template
		for _, h := range r.Head {
			if !r.bindSlots(&slots, h, g.S, g.R, g.T) {
				continue
			}
			if body == nil {
				body = slices.Clone(r.Body)
			}
			if !query.Join(src.join(e), body, slots, func() bool {
				return emit(hit{head: ground(h, slots), rule: userRule, user: r, slots: slots})
			}) {
				return false
			}
		}
	}
	return true
}

// hopGoal emits every derivation of hop row from a data and a link
// premise in src whose head matches g. The premise enumerated first is
// asked for with the goal's constants in place, the second once per
// result of the first. Which goes first follows from what the goal
// binds: the data premise on a dataFirst row, or when the head's
// joined position far is free and the data pattern still binds a
// position (asked link first, that goal would enumerate the whole ≺, ∈
// or ⇌ relation and ask for a data premise per link); the link premise
// otherwise, and always for a ground goal. Both orders meet the same
// (data, link) pairs, so the order moves subgoal traffic, never an
// answer.
func (e *Engine) hopGoal(row *stdRow, src source, g fact.Fact, emit func(hit) bool) bool {
	h := g // pattern of the data premise, but for the joined position
	if row.swap {
		h = swapST(g)
	}
	switch {
	case row.data != sym.None:
		if h.R != sym.None && h.R != row.data {
			return true
		}
		h.R = row.data
	case row.at != posR && h.R != sym.None && !row.takesData(h.R, row.indiv && src.individual(e, h.R)):
		return true // no fact over h.R is a data premise
	}
	if row.distinct && g.S != sym.None && g.S == g.T {
		return true
	}
	far := at(h, row.at)
	if dp := with(h, row.at, sym.None); row.dataFirst || far == sym.None && dp != (fact.Fact{}) {
		for _, d := range src.facts(0, dp) {
			if !src.isData(e, row, d) {
				continue
			}
			lp := row.linkFact(at(d, row.at), far)
			for _, l := range src.facts(1, lp) {
				if !e.virtualGen(l) && !e.hopHit(row, d, l, emit) {
					return false
				}
			}
		}
		return true
	}
	for _, l := range src.facts(0, row.linkFact(sym.None, far)) {
		if e.virtualGen(l) {
			continue
		}
		near, _ := row.linkEnds(l)
		for _, d := range src.facts(1, with(h, row.at, near)) {
			if src.isData(e, row, d) && !e.hopHit(row, d, l, emit) {
				return false
			}
		}
	}
	return true
}

// hopHit emits the derivation of hop row from data premise d and link
// l, unless distinct rejects its head, and reports whether to go on.
func (e *Engine) hopHit(row *stdRow, d, l fact.Fact, emit func(hit) bool) bool {
	_, far := row.linkEnds(l)
	head, ok := row.conclude(with(d, row.at, far))
	return !ok || emit(hit{head: head, rule: uint32(row.rule), a: d, b: l})
}

// unaryGoal emits every derivation of unary row from premises in src
// whose head matches g, whose relationship is free or the row's head
// relationship.
func (e *Engine) unaryGoal(row *stdRow, src source, g fact.Fact, emit func(hit) bool) bool {
	pp := fact.Fact{S: g.S, R: row.data, T: g.T}
	if row.swap {
		pp = swapST(pp)
	}
	for _, p := range src.facts(0, pp) {
		head, ok := row.conclude(p)
		switch {
		case !ok || e.virtualGen(p):
			continue
		case !row.twin:
			if !emit(hit{head: head, rule: uint32(row.rule), a: p}) {
				return false
			}
			continue
		}
		for _, tw := range src.facts(1, swapST(p)) {
			if !e.virtualGen(tw) && !emit(hit{head: head, rule: uint32(row.rule), a: p, b: tw}) {
				return false
			}
		}
	}
	return true
}
