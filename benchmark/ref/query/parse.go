package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/benchmark/ref/fact"
)

// The surface syntax of the retrieval language:
//
//	formula  := disj
//	disj     := conj { ("|" | "or" | "∨") conj }
//	conj     := unary { ("&" | "and" | "∧") unary }
//	unary    := ("exists" | "∃" | "forall" | "∀") var... "." unary
//	          | template | "(" formula ")" | "[" formula "]"
//	template := "(" term "," term "," term ")"
//	term     := entity | "?"name | "*"
//
// Entities are bare words (JOHN, $25000, PC#9-WAM) or quoted strings
// ('FAVORITE MUSIC'); ASCII aliases of the special entities (isa, in,
// syn, inv, TOP, ...) are normalized. "*" is an anonymous variable:
// it matches anything and is projected away unless it appears in a
// navigation template (the browse package gives * columns).
//
// Examples from the paper:
//
//	(y, in, BOOK)
//	exists ?x . (?x, in, BOOK) & (?x, CITES, ?x) & (?x, AUTHOR, ?y)
//	(JOHN, LIKES, FELIX) & (FELIX, LIKES, JOHN)

type tokKind int

const (
	tEOF tokKind = iota
	tLParen
	tRParen
	tLBracket
	tRBracket
	tComma
	tAnd
	tOr
	tDot
	tExists
	tForall
	tVar
	tStar
	tWord
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// ParseError reports a syntax error with its byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("query: parse error at offset %d: %s", e.Pos, e.Msg)
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		r, w := utf8.DecodeRuneInString(src[i:])
		switch {
		case unicode.IsSpace(r):
			i += w
		case r == '(':
			toks = append(toks, token{tLParen, "(", i})
			i += w
		case r == ')':
			toks = append(toks, token{tRParen, ")", i})
			i += w
		case r == '[':
			toks = append(toks, token{tLBracket, "[", i})
			i += w
		case r == ']':
			toks = append(toks, token{tRBracket, "]", i})
			i += w
		case r == ',':
			toks = append(toks, token{tComma, ",", i})
			i += w
		case r == '&' || r == '∧':
			toks = append(toks, token{tAnd, "&", i})
			i += w
		case r == '|' || r == '∨':
			toks = append(toks, token{tOr, "|", i})
			i += w
		case r == '.':
			toks = append(toks, token{tDot, ".", i})
			i += w
		case r == '∃':
			toks = append(toks, token{tExists, "exists", i})
			i += w
		case r == '∀':
			toks = append(toks, token{tForall, "forall", i})
			i += w
		case r == '*':
			toks = append(toks, token{tStar, "*", i})
			i += w
		case r == '?':
			j := i + w
			for j < len(src) {
				r2, w2 := utf8.DecodeRuneInString(src[j:])
				if !isWordRune(r2) {
					break
				}
				j += w2
			}
			if j == i+w {
				return nil, &ParseError{i, "empty variable name after '?'"}
			}
			toks = append(toks, token{tVar, src[i+w : j], i})
			i = j
		case r == '\'' || r == '"':
			quote := r
			j := i + w
			var name strings.Builder
			for j < len(src) {
				r2, w2 := utf8.DecodeRuneInString(src[j:])
				switch r2 {
				case quote:
					if name.Len() == 0 {
						return nil, &ParseError{i, "empty quoted entity"}
					}
					toks = append(toks, token{tWord, name.String(), i})
					i = j + w2
					goto next
				case '\\':
					// Backslash escapes the next rune (quotes and
					// backslashes inside quoted entity names).
					j += w2
					if j >= len(src) {
						return nil, &ParseError{i, "unterminated quoted entity"}
					}
					r3, w3 := utf8.DecodeRuneInString(src[j:])
					name.WriteRune(r3)
					j += w3
				default:
					name.WriteRune(r2)
					j += w2
				}
			}
			return nil, &ParseError{i, "unterminated quoted entity"}
		case isWordRune(r):
			j := i
			for j < len(src) {
				r2, w2 := utf8.DecodeRuneInString(src[j:])
				if r2 == '.' {
					// A dot inside a word ("25.5", "C0.1") belongs to
					// the entity name; a dot followed by a non-word
					// rune is the quantifier separator.
					r3, _ := utf8.DecodeRuneInString(src[j+w2:])
					if j+w2 < len(src) && isWordRune(r3) {
						j += w2
						continue
					}
					break
				}
				if !isWordRune(r2) {
					break
				}
				j += w2
			}
			word := src[i:j]
			switch strings.ToLower(word) {
			case "and":
				toks = append(toks, token{tAnd, word, i})
			case "or":
				toks = append(toks, token{tOr, word, i})
			case "exists":
				toks = append(toks, token{tExists, word, i})
			case "forall":
				toks = append(toks, token{tForall, word, i})
			default:
				toks = append(toks, token{tWord, word, i})
			}
			i = j
		default:
			return nil, &ParseError{i, fmt.Sprintf("unexpected character %q", r)}
		}
	next:
	}
	toks = append(toks, token{tEOF, "", len(src)})
	return toks, nil
}

// IsWordRune reports whether r may appear in a bare (unquoted) entity
// name. Writers that emit the surface syntax (factfile.Dump) use it
// to decide when a name needs quoting.
func IsWordRune(r rune) bool { return isWordRune(r) }

// isWordRune reports whether r may appear in a bare entity name.
// Entity names in the paper include $25000, PC#9-WAM, ISBN-914894,
// and the special symbols ≺ ∈ ≈ ⇌ ⊥ Δ ∇ = ≠ < > ≤ ≥.
func isWordRune(r rune) bool {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return true
	}
	switch r {
	case '$', '#', '-', '_', '+', '/', '@', ':', '%',
		'≺', '∈', '≈', '⇌', '⊥', 'Δ', '∇', '=', '≠', '<', '>', '≤', '≥', '!':
		return true
	}
	return false
}

type parser struct {
	toks    []token
	i       int
	u       *fact.Universe
	names   map[string]fact.Var
	varName map[fact.Var]string
	nextVar fact.Var
	anon    int
}

// Parse parses src into a Query over universe u.
func Parse(u *fact.Universe, src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:    toks,
		u:       u,
		names:   make(map[string]fact.Var),
		varName: make(map[fact.Var]string),
	}
	f, err := p.disj()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, &ParseError{p.peek().pos, fmt.Sprintf("unexpected %q after formula", p.peek().text)}
	}
	return NewQuery(u, f, p.varName), nil
}

// MustParse is Parse, panicking on error; for tests and fixed queries.
func MustParse(u *fact.Universe, src string) *Query {
	q, err := Parse(u, src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peekAt(k int) token {
	if p.i+k >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+k]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, &ParseError{t.pos, fmt.Sprintf("expected %s, found %q", what, t.text)}
	}
	return t, nil
}

func (p *parser) disj() (Formula, error) {
	left, err := p.conj()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tOr {
		p.next()
		right, err := p.conj()
		if err != nil {
			return nil, err
		}
		left = &Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) conj() (Formula, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tAnd {
		p.next()
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) unary() (Formula, error) {
	switch p.peek().kind {
	case tExists, tForall:
		kind := p.next().kind
		var vars []fact.Var
		for p.peek().kind == tVar {
			t := p.next()
			vars = append(vars, p.variable(t.text))
		}
		if len(vars) == 0 {
			return nil, &ParseError{p.peek().pos, "quantifier needs at least one ?variable"}
		}
		if _, err := p.expect(tDot, "'.' after quantified variables"); err != nil {
			return nil, err
		}
		// Dot notation: the quantifier's scope extends as far right
		// as possible; bracket the body to limit it.
		body, err := p.disj()
		if err != nil {
			return nil, err
		}
		// Innermost variable binds closest.
		for i := len(vars) - 1; i >= 0; i-- {
			if kind == tExists {
				body = &Exists{V: vars[i], Body: body}
			} else {
				body = &Forall{V: vars[i], Body: body}
			}
		}
		return body, nil
	case tLBracket:
		p.next()
		f, err := p.disj()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBracket, "']'"); err != nil {
			return nil, err
		}
		return f, nil
	case tLParen:
		// Template if the shape is "(" term "," ...; otherwise a
		// parenthesized formula. A term is a single token.
		if p.isTermTok(p.peekAt(1).kind) && p.peekAt(2).kind == tComma {
			return p.template()
		}
		p.next()
		f, err := p.disj()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return nil, &ParseError{p.peek().pos, fmt.Sprintf("expected formula, found %q", p.peek().text)}
	}
}

func (p *parser) isTermTok(k tokKind) bool {
	return k == tWord || k == tVar || k == tStar
}

func (p *parser) template() (Formula, error) {
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return nil, err
	}
	s, err := p.term()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	r, err := p.term()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	t, err := p.term()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	return &Atom{Tpl: fact.Template{S: s, R: r, T: t}}, nil
}

func (p *parser) term() (fact.Term, error) {
	t := p.next()
	switch t.kind {
	case tWord:
		return fact.E(p.u.Entity(t.text)), nil
	case tVar:
		return fact.V(p.variable(t.text)), nil
	case tStar:
		p.anon++
		v := p.fresh(fmt.Sprintf("_%d", p.anon))
		return fact.V(v), nil
	default:
		return fact.Term{}, &ParseError{t.pos, fmt.Sprintf("expected entity, ?variable or *, found %q", t.text)}
	}
}

func (p *parser) variable(name string) fact.Var {
	if v, ok := p.names[name]; ok {
		return v
	}
	return p.fresh(name)
}

func (p *parser) fresh(name string) fact.Var {
	p.nextVar++
	v := p.nextVar
	p.names[name] = v
	p.varName[v] = name
	return v
}
