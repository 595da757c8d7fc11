// Package rules implements the inference system of a loosely
// structured database (paper §2.4–§2.6, §3).
//
// A rule is a pair ⟨L, R⟩ of template sets: whenever the templates of
// L simultaneously match the database (under a consistent assignment
// to variables), the instantiated templates of R are facts of the
// database closure. The same mechanism serves inference rules and
// integrity constraints (§2.5): a constraint is a rule whose derived
// facts must not contradict the rest of the closure.
//
// The standard rules of §3 — inference by generalization, membership,
// synonym and inversion — are ordinary ⟨L,R⟩ rules that are merely
// pre-included (§2.4). Each is declared once, as a row of the table
// below (stdRow): a data fact joined at one position with a ≺, ∈ or ⇌
// link fact, or a single premise rewritten. The one thing a plain
// template cannot say — "r ranges over R_i, the individual
// relationships" — is the row's indiv annotation, decided by
// Engine.Individual. Two interpreters read the table: forwards from a
// new fact (apply.go), and goal-directed from a fact or a pattern
// (goal.go), with premises read from a store for delete propagation
// and Explain, or from the bounded matcher's answers one depth down
// (ondemand.go). Rules are included and excluded individually, as
// §6.1's operators require.
//
// Two matching strategies are provided:
//
//   - Engine.Match / Engine.Closure: an exact, incrementally cached
//     materialized closure computed by semi-naive forward chaining.
//   - Engine.MatchBounded: an on-demand backward matcher that answers
//     template queries without materializing, exact with respect to a
//     bounded derivation depth (see ondemand.go).
package rules

import (
	"fmt"
	"strings"

	"repro/internal/fact"
	"repro/internal/sym"
)

// Kind distinguishes inference rules from integrity constraints.
// Both have identical ⟨L,R⟩ form and identical forward semantics
// (§2.5: "such rules ... are identical to inference rules"); the kind
// is used only when reporting violations.
type Kind int

const (
	// Inference rules add facts to the closure.
	Inference Kind = iota
	// Constraint rules add facts whose contradiction with the rest
	// of the closure constitutes an integrity violation.
	Constraint
)

func (k Kind) String() string {
	if k == Constraint {
		return "constraint"
	}
	return "inference"
}

// Rule is a conjunctive rule ⟨Body, Head⟩ over templates (§2.6).
// Variables are shared between body and head; every head variable
// must occur in the body (safety).
type Rule struct {
	Name string
	Kind Kind
	Body []fact.Template
	Head []fact.Template
}

// Validate reports whether the rule is well formed: non-empty body
// and head, and every head variable bound by the body.
func (r *Rule) Validate() error {
	return r.validate(func(v fact.Var) string { return fmt.Sprintf("v%d", v) })
}

// validate is Validate naming each variable by name(v).
func (r *Rule) validate(name func(fact.Var) string) error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule must be named")
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("rules: rule %q has empty body", r.Name)
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("rules: rule %q has empty head", r.Name)
	}
	var bodyVars []fact.Var
	for _, tp := range r.Body {
		bodyVars = tp.Vars(bodyVars)
	}
	bound := make(map[fact.Var]bool, len(bodyVars))
	for _, v := range bodyVars {
		bound[v] = true
	}
	var headVars []fact.Var
	for _, tp := range r.Head {
		headVars = tp.Vars(headVars)
	}
	for _, v := range headVars {
		if !bound[v] {
			return fmt.Errorf("rules: rule %q: head variable ?%s not bound in body", r.Name, name(v))
		}
	}
	return nil
}

// Format renders the rule as "body ⇒ head" using universe names.
func (r *Rule) Format(u *fact.Universe) string {
	var b strings.Builder
	for i, tp := range r.Body {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(u.FormatTemplate(tp))
	}
	b.WriteString(" ⇒ ")
	for i, tp := range r.Head {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(u.FormatTemplate(tp))
	}
	return b.String()
}

// StdRule identifies one of the built-in standard inference rules of §3.
type StdRule int

const (
	// GenSource: (s,r,t) ∧ (s',≺,s) ⇒ (s',r,t) for r ∈ R_i —
	// specializations of the source inherit its facts (§3.1).
	GenSource StdRule = iota
	// GenRel: (s,r,t) ∧ (r,≺,r') ⇒ (s,r',t) — facts hold under more
	// general relationships (§3.1).
	GenRel
	// GenTarget: (s,r,t) ∧ (t,≺,t') ⇒ (s,r,t') for r ∈ R_i — facts
	// hold with more general targets (§3.1).
	GenTarget
	// MemberSource: (s,r,t) ∧ (s',∈,s) ⇒ (s',r,t) for r ∈ R_i —
	// instances inherit the facts of their class (§3.2).
	MemberSource
	// MemberTarget: (s,r,t) ∧ (t,∈,t') ⇒ (s,r,t') for r ∈ R_i — a
	// fact reaching an instance also reaches its class (§3.2).
	MemberTarget
	// GenTransitive: (s,≺,t) ∧ (t,≺,t') ⇒ (s,≺,t') (§3.1; obtained
	// there by selecting ≺ for r).
	GenTransitive
	// MemberUp: (s,∈,t) ∧ (t,≺,t') ⇒ (s,∈,t') — an instance of an
	// entity is an instance of every more general entity (§3.2).
	//
	// NOTE: the paper's formula at this point reads (s',≺,t), but its
	// prose says "is also an instance of every more general entity";
	// we follow the prose. See DESIGN.md.
	MemberUp
	// Synonym: (s,≈,t) ⇒ (s,≺,t) ∧ (t,≺,s), and conversely a
	// two-way generalization implies a synonym (§3.3). Substitution
	// of synonyms in any fact position then follows from the
	// generalization rules.
	Synonym
	// Inversion: (s,r,t) ∧ (r,⇌,r') ⇒ (t,r',s); with the axiom
	// (⇌,⇌,⇌), inversion facts come in pairs (§3.4).
	Inversion
	numStdRules
)

// StdRules lists every built-in rule identifier.
func StdRules() []StdRule {
	out := make([]StdRule, numStdRules)
	for i := range out {
		out[i] = StdRule(i)
	}
	return out
}

var stdRuleNames = [...]string{
	GenSource:     "gen-source",
	GenRel:        "gen-rel",
	GenTarget:     "gen-target",
	MemberSource:  "member-source",
	MemberTarget:  "member-target",
	GenTransitive: "gen-transitive",
	MemberUp:      "member-up",
	Synonym:       "synonym",
	Inversion:     "inversion",
}

func (s StdRule) String() string {
	if s < 0 || int(s) >= len(stdRuleNames) {
		return fmt.Sprintf("StdRule(%d)", int(s))
	}
	return stdRuleNames[s]
}

// StdRuleByName resolves a standard rule identifier from its name.
func StdRuleByName(name string) (StdRule, bool) {
	for i, n := range stdRuleNames {
		if n == name {
			return StdRule(i), true
		}
	}
	return 0, false
}

// pos names one position of a fact.
type pos uint8

const (
	posS pos = iota
	posR
	posT
)

// at returns the entity of f at position p.
func at(f fact.Fact, p pos) sym.ID { return [3]sym.ID{f.S, f.R, f.T}[p] }

// with returns f with position p replaced by v. Patterns are facts
// with sym.None wildcards, so it serves both.
func with(f fact.Fact, p pos, v sym.ID) fact.Fact {
	a := [3]sym.ID{f.S, f.R, f.T}
	a[p] = v
	return fact.Fact{S: a[0], R: a[1], T: a[2]}
}

func swapST(f fact.Fact) fact.Fact { return fact.Fact{S: f.T, R: f.R, T: f.S} }

// stdRow declares one standard inference. A row with a link is a hop:
//
//	data ∧ link ⇒ data with the joined position moved along the link
//
// where data is a fact over the data relationship (any r ∈ R_i when
// indiv is set, any at all when neither is), link is a fact over the
// link relationship, and the two meet at position at of data. Going up
// the link the position holds link.S and the head gets link.T; going
// down, the reverse. A row without a link is unary: a premise over the
// data relationship is rewritten to the head relationship; with twin
// set it also needs its own S/T swap as a second premise. swap
// exchanges S and T of the head; distinct drops heads with S = T.
//
// In every row a ≺ premise that restates a virtual axiom (virtualGen)
// is inert: what it would conclude is virtual itself or follows
// without it, and the closure store cannot see the virtual facts the
// bounded matcher can, so this is what keeps the passes equal.
//
// dataFirst steers the goal-directed pass, not the meaning: such a row
// is read data premise first, its data premise being the narrower one.
// Every other hop row chooses per goal (hopGoal): link premise first
// when the goal binds the head's joined position, as a ground goal
// always does, and data premise first when it does not.
type stdRow struct {
	rule StdRule

	indiv bool   // data ranges over R_i (Engine.Individual) …
	data  sym.ID // … or is over this relationship; sym.None: any

	link sym.ID // hop rows: ≺, ∈ or ⇌
	at   pos
	up   bool

	head sym.ID // unary rows
	twin bool

	swap, distinct, dataFirst bool
}

// newStdTable declares the standard rules over one universe, each
// once; the comments on the StdRule constants give the paper's formula
// for each. Inversion is one rule read both ways (§3.4): inversion
// reads a declaration (r,⇌,r') left to right and inversionBack right
// to left.
//
// The list is the order both interpreters visit the rows in. What
// either finds does not depend on it, nor does which subgoals a bounded
// call asks for, only in what order. It decides how soon delete
// propagation finds a derivation of a fact that has several. Measured
// against the same list with genTarget before memberSource: the traced
// rules.facts_scanned_per_trail on infer_ondemand reads 0 under both
// (its warm trails are all subgoal hits), and rules.dred_delete_ms on
// browse_churn reads 0.0139 and 0.0145 ms here against 0.0142 and
// 0.0128 ms (two runs each: noise). Counted, delete propagation reads
// 535 store facts per retraction in this order and 539 in the other
// (gen Small and Medium seeds 1–10, every seventh stored fact
// retracted).
func newStdTable(u *fact.Universe) []stdRow {
	gen, member, syn, inv := u.Gen, u.Member, u.Syn, u.Inv
	var (
		genSource     = stdRow{rule: GenSource, indiv: true, link: gen, at: posS}
		genRel        = stdRow{rule: GenRel, indiv: true, link: gen, at: posR, up: true}
		genTarget     = stdRow{rule: GenTarget, indiv: true, link: gen, at: posT, up: true}
		memberSource  = stdRow{rule: MemberSource, indiv: true, link: member, at: posS}
		memberTarget  = stdRow{rule: MemberTarget, indiv: true, link: member, at: posT, up: true}
		genTransitive = stdRow{rule: GenTransitive, data: gen, link: gen, at: posT, up: true, distinct: true, dataFirst: true}
		memberUp      = stdRow{rule: MemberUp, data: member, link: gen, at: posT, up: true, dataFirst: true}
		inversion     = stdRow{rule: Inversion, link: inv, at: posR, up: true, swap: true}
		inversionBack = stdRow{rule: Inversion, link: inv, at: posR, swap: true}
		synFromTwoWay = stdRow{rule: Synonym, data: gen, head: syn, twin: true, distinct: true}
		synSymmetric  = stdRow{rule: Synonym, data: syn, head: syn, swap: true}
		synToGen      = stdRow{rule: Synonym, data: syn, head: gen}
		synToGenBack  = stdRow{rule: Synonym, data: syn, head: gen, swap: true}
	)
	return []stdRow{
		genSource, memberSource, genTarget, memberTarget, genRel,
		inversion, inversionBack,
		genTransitive, memberUp,
		synToGen, synToGenBack, synSymmetric, synFromTwoWay,
	}
}

// hop reports whether the row joins a data premise with a link.
func (r *stdRow) hop() bool { return r.link != sym.None }

// takesData reports whether a fact over relationship rel can be the
// row's data premise; isIndiv is Engine.Individual(rel), a store
// lookup, which callers hoist out of their loops or read once per
// relationship (source.isData).
func (r *stdRow) takesData(rel sym.ID, isIndiv bool) bool {
	if r.indiv {
		return isIndiv
	}
	return r.data == sym.None || rel == r.data
}

// isData reports whether d can be the row's data premise.
func (e *Engine) isData(row *stdRow, d fact.Fact) bool {
	return row.takesData(d.R, row.indiv && e.Individual(d.R)) && !e.virtualGen(d)
}

// linkFact returns the row's link premise between near, the entity the
// data premise holds at the joined position, and far, the entity the
// head holds there. Either may be sym.None to form a pattern.
func (r *stdRow) linkFact(near, far sym.ID) fact.Fact {
	if r.up {
		return fact.Fact{S: near, R: r.link, T: far}
	}
	return fact.Fact{S: far, R: r.link, T: near}
}

// linkEnds is the inverse of linkFact.
func (r *stdRow) linkEnds(l fact.Fact) (near, far sym.ID) {
	if r.up {
		return l.S, l.T
	}
	return l.T, l.S
}

// conclude returns the head of a hop row from its data premise with
// the joined position already moved to the far end of the link, or of
// a unary row from its premise; ok is false when distinct rejects it.
func (r *stdRow) conclude(f fact.Fact) (fact.Fact, bool) {
	if !r.hop() {
		f.R = r.head
	}
	if r.swap {
		f = swapST(f)
	}
	return f, !(r.distinct && f.S == f.T)
}

// virtualGen reports whether g restates one of the virtual ≺ axioms:
// x≺x, x≺Δ or ∇≺x (§3.1). Such a fact is no premise of any standard
// rule, whether the virtual provider supplies it or someone stored it.
func (e *Engine) virtualGen(g fact.Fact) bool {
	u := e.u
	return g.R == u.Gen && (g.S == g.T || g.T == u.Top || g.S == u.Bottom)
}
