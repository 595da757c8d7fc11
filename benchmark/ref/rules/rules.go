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
// synonym and inversion — are built into the Engine natively (they
// quantify over the set R_i of individual relationships, which a
// plain template cannot express) and can be included or excluded
// individually, as §6.1's include/exclude operators require.
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

	"repro/benchmark/ref/fact"
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
			return fmt.Errorf("rules: rule %q: head variable ?v%d not bound in body", r.Name, v)
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
