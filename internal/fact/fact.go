// Package fact defines the atomic unit of information of a loosely
// structured database: the fact, a named pair of entities (paper §2.1).
//
// A fact (s, r, t) states that source entity s is related to target
// entity t via the relationship entity r. Relationship names are
// themselves entities, so "schema" relationships such as
// (EMPLOYEE, EARNS, SALARY) and "data" relationships such as
// (JOHN, EARNS, $25000) are stored and retrieved uniformly (§2.6).
//
// The package also defines templates — facts whose positions may hold
// variables — which serve both as the bodies of inference rules (§2.4)
// and as the primitive queries of the retrieval language (§2.7).
package fact

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sym"
)

// Fact is a named pair of entities: (source, relationship, target).
type Fact struct {
	S, R, T sym.ID
}

// Compare orders facts by (S, R, T): the one canonical fact order.
// Sealed store indexes are sorted by it, and the closure build sorts
// its frontier and every new generation by it, so the two must agree.
func Compare(a, b Fact) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.T, b.T)
}

// Var identifies a template variable. Variables are scoped to the
// formula or rule that declares them; Var 0 is "not a variable".
type Var int32

// Term is one position of a template: either a concrete entity or a
// variable. Exactly one of Entity and Variable is set; a Term with
// Variable != 0 is a variable regardless of Entity.
type Term struct {
	Entity   sym.ID
	Variable Var
}

// E returns a constant term for entity id.
func E(id sym.ID) Term { return Term{Entity: id} }

// V returns a variable term.
func V(v Var) Term { return Term{Variable: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Variable != 0 }

// Template is a fact in which any position may be a variable (§2.4).
// A template with no variables denotes a single fact.
type Template struct {
	S, R, T Term
}

// T3 builds a template from three terms.
func T3(s, r, t Term) Template { return Template{S: s, R: r, T: t} }

// Ground reports whether the template contains no variables.
func (tp Template) Ground() bool {
	return !tp.S.IsVar() && !tp.R.IsVar() && !tp.T.IsVar()
}

// AsFact converts a ground template to a fact. It panics if the
// template contains variables.
func (tp Template) AsFact() Fact {
	if !tp.Ground() {
		panic("fact: AsFact on non-ground template")
	}
	return Fact{S: tp.S.Entity, R: tp.R.Entity, T: tp.T.Entity}
}

// Vars appends the distinct variables of the template to dst in
// position order and returns the extended slice.
func (tp Template) Vars(dst []Var) []Var {
	add := func(v Var) {
		if v == 0 {
			return
		}
		for _, have := range dst {
			if have == v {
				return
			}
		}
		dst = append(dst, v)
	}
	add(tp.S.Variable)
	add(tp.R.Variable)
	add(tp.T.Variable)
	return dst
}

// Canonical names of the special entities the paper introduces.
// ASCII aliases accepted by parsers are listed in Aliases.
const (
	NameGen        = "≺" // generalization (§2.3)
	NameMember     = "∈" // membership (§2.3)
	NameSyn        = "≈" // synonym (§3.3)
	NameInv        = "⇌" // inversion (§3.4)
	NameContra     = "⊥" // contradiction (§3.5)
	NameTop        = "Δ" // most abstract entity (§2.3)
	NameBottom     = "∇" // most specified entity (§2.3)
	NameEq         = "="
	NameNeq        = "≠"
	NameLt         = "<"
	NameGt         = ">"
	NameLe         = "≤"
	NameGe         = "≥"
	NameIndividual = "@individual" // class of individual relationships R_i (§2.2)
	NameClassRel   = "@class"      // class of class relationships R_c (§2.2)
)

// Aliases maps ASCII spellings to canonical special-entity names.
// Parsers and loaders accept either form.
var Aliases = map[string]string{
	"isa":     NameGen,
	"ISA":     NameGen,
	"in":      NameMember,
	"IN":      NameMember,
	"syn":     NameSyn,
	"SYN":     NameSyn,
	"inv":     NameInv,
	"INV":     NameInv,
	"contra":  NameContra,
	"CONTRA":  NameContra,
	"TOP":     NameTop,
	"BOT":     NameBottom,
	"!=":      NameNeq,
	"<=":      NameLe,
	">=":      NameGe,
	"MEMBER":  NameMember,
	"member":  NameMember,
	"GEN":     NameGen,
	"gen":     NameGen,
	"INVERSE": NameInv,
	"inverse": NameInv,
}

// Universe is the universe of entities E: an interning table plus the
// pre-interned special entities and a cache of numeric entities.
type Universe struct {
	*sym.Table

	Gen, Member, Syn, Inv, Contra    sym.ID
	Top, Bottom                      sym.ID
	Eq, Neq, Lt, Gt, Le, Ge          sym.ID
	IndividualClass, RelClassOfClass sym.ID

	numMu   sync.RWMutex
	numbers map[sym.ID]float64
	notNum  map[sym.ID]bool
}

// NewUniverse returns a universe with all special entities interned.
func NewUniverse() *Universe {
	u := &Universe{
		Table:   sym.NewTable(),
		numbers: make(map[sym.ID]float64),
		notNum:  make(map[sym.ID]bool),
	}
	u.Gen = u.Intern(NameGen)
	u.Member = u.Intern(NameMember)
	u.Syn = u.Intern(NameSyn)
	u.Inv = u.Intern(NameInv)
	u.Contra = u.Intern(NameContra)
	u.Top = u.Intern(NameTop)
	u.Bottom = u.Intern(NameBottom)
	u.Eq = u.Intern(NameEq)
	u.Neq = u.Intern(NameNeq)
	u.Lt = u.Intern(NameLt)
	u.Gt = u.Intern(NameGt)
	u.Le = u.Intern(NameLe)
	u.Ge = u.Intern(NameGe)
	u.IndividualClass = u.Intern(NameIndividual)
	u.RelClassOfClass = u.Intern(NameClassRel)
	return u
}

// Entity interns name, normalizing ASCII aliases of special entities.
func (u *Universe) Entity(name string) sym.ID {
	if canon, ok := Aliases[name]; ok {
		name = canon
	}
	return u.Intern(name)
}

// NewFact interns the three names and returns the fact.
func (u *Universe) NewFact(s, r, t string) Fact {
	return Fact{S: u.Entity(s), R: u.Entity(r), T: u.Entity(t)}
}

// Number reports whether the entity names a number, and its value.
// Entity names such as "42", "-3.5", and "$25000" (a leading currency
// sign is ignored) are numbers; results are cached.
func (u *Universe) Number(id sym.ID) (float64, bool) {
	u.numMu.RLock()
	if v, ok := u.numbers[id]; ok {
		u.numMu.RUnlock()
		return v, true
	}
	if u.notNum[id] {
		u.numMu.RUnlock()
		return 0, false
	}
	u.numMu.RUnlock()

	name := u.Name(id)
	trimmed := strings.TrimPrefix(name, "$")
	trimmed = strings.ReplaceAll(trimmed, ",", "")
	v, err := strconv.ParseFloat(trimmed, 64)

	u.numMu.Lock()
	defer u.numMu.Unlock()
	if err != nil {
		u.notNum[id] = true
		return 0, false
	}
	u.numbers[id] = v
	return v, true
}

// FormatFact renders a fact as "(S, R, T)" using entity names.
func (u *Universe) FormatFact(f Fact) string {
	return fmt.Sprintf("(%s, %s, %s)", u.Name(f.S), u.Name(f.R), u.Name(f.T))
}

// FormatTemplate renders a template, printing variables as ?vN.
func (u *Universe) FormatTemplate(tp Template) string {
	term := func(t Term) string {
		if t.IsVar() {
			return fmt.Sprintf("?v%d", t.Variable)
		}
		return u.Name(t.Entity)
	}
	return fmt.Sprintf("(%s, %s, %s)", term(tp.S), term(tp.R), term(tp.T))
}

// Special reports whether id is one of the built-in special entities.
func (u *Universe) Special(id sym.ID) bool {
	switch id {
	case u.Gen, u.Member, u.Syn, u.Inv, u.Contra, u.Top, u.Bottom,
		u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge,
		u.IndividualClass, u.RelClassOfClass:
		return true
	}
	return false
}
