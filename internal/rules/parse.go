package rules

import (
	"fmt"
	"strings"

	"repro/internal/fact"
	"repro/internal/query"
)

// ParseRule parses the textual rule syntax
//
//	(?x, in, EMPLOYEE) & (EMPLOYEE, EARNS, ?y) => (?x, EARNS, ?y)
//
// into a Rule ⟨body, head⟩. Both sides are conjunctions of templates;
// variables are shared between the sides. The separator is "=>" or
// "⇒".
func ParseRule(u *fact.Universe, name string, kind Kind, src string) (Rule, error) {
	sep := "=>"
	idx := strings.Index(src, sep)
	if idx < 0 {
		sep = "⇒"
		idx = strings.Index(src, sep)
	}
	if idx < 0 {
		return Rule{}, fmt.Errorf("rules: rule %q: missing '=>' separator", name)
	}
	bodySrc := strings.TrimSpace(src[:idx])
	headSrc := strings.TrimSpace(src[idx+len(sep):])
	if bodySrc == "" || headSrc == "" {
		return Rule{}, fmt.Errorf("rules: rule %q: empty body or head", name)
	}

	// Parse body alone to learn how many atoms it has, then parse
	// "body & head" as one formula so variables are shared.
	bq, err := query.Parse(u, bodySrc)
	if err != nil {
		return Rule{}, fmt.Errorf("rules: rule %q body: %w", name, err)
	}
	nBody := len(bq.Atoms())

	full, err := query.Parse(u, bodySrc+" & "+headSrc)
	if err != nil {
		return Rule{}, fmt.Errorf("rules: rule %q: %w", name, err)
	}
	if err := pureConjunction(full.Root); err != nil {
		return Rule{}, fmt.Errorf("rules: rule %q: %w", name, err)
	}
	atoms := full.Atoms()
	if nBody >= len(atoms) {
		return Rule{}, fmt.Errorf("rules: rule %q: head has no templates", name)
	}
	r := Rule{Name: name, Kind: kind}
	for i, a := range atoms {
		if i < nBody {
			r.Body = append(r.Body, a.Tpl)
		} else {
			r.Head = append(r.Head, a.Tpl)
		}
	}
	if err := r.validate(full.VarName); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// pureConjunction checks that f contains only atoms and conjunctions:
// rules are strictly conjunctive (§2.6).
func pureConjunction(f query.Formula) error {
	ok := true
	query.Walk(f, func(n query.Formula) bool {
		switch n.(type) {
		case *query.Atom, *query.And:
			return true
		default:
			ok = false
			return false
		}
	})
	if !ok {
		return fmt.Errorf("rules are strictly conjunctive: only templates joined by '&' are allowed")
	}
	return nil
}
