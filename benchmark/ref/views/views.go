// Package views implements the §6 "definition facility": new
// retrieval operators defined on top of the standard query language.
//
// A definition names a parameterized formula:
//
//	define author-of(?b, ?p) := (?b, in, BOOK) & (?b, AUTHOR, ?p)
//
// and a query may then invoke it wherever a template could appear:
//
//	author-of(?x, JOHN) & (?x, CITES, ?x)
//
// Invocations are expanded before parsing: parameters are replaced by
// the argument terms and the definition's internal variables are
// renamed apart so they cannot capture variables of the calling
// query. Definitions may invoke other definitions; cycles are
// rejected by a depth limit.
package views

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// Def is one named operator definition.
type Def struct {
	Name   string
	Params []string // parameter variable names, without '?'
	Body   string   // formula source text
}

// Registry holds definitions and expands invocations.
type Registry struct {
	mu    sync.RWMutex
	defs  map[string]*Def
	fresh int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*Def)}
}

// maxExpansionDepth bounds nested (and accidentally recursive)
// definition expansion.
const maxExpansionDepth = 32

var defRe = regexp.MustCompile(`^\s*([A-Za-z][A-Za-z0-9_-]*)\s*\(([^)]*)\)\s*:=\s*(.+?)\s*$`)
var varRe = regexp.MustCompile(`\?([A-Za-z][A-Za-z0-9_-]*)`)

// ParseDefine parses "name(?a, ?b) := formula" and registers it,
// replacing any existing definition of the same name.
func (r *Registry) ParseDefine(src string) error {
	m := defRe.FindStringSubmatch(src)
	if m == nil {
		return fmt.Errorf("views: definition must look like name(?a, ?b) := formula")
	}
	name, paramsSrc, body := m[1], m[2], m[3]
	var params []string
	for _, p := range strings.Split(paramsSrc, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "?") {
			return fmt.Errorf("views: parameter %q must be a ?variable", p)
		}
		params = append(params, strings.TrimPrefix(p, "?"))
	}
	if len(params) == 0 {
		return fmt.Errorf("views: definition %q needs at least one parameter", name)
	}
	seen := map[string]bool{}
	for _, p := range params {
		if seen[p] {
			return fmt.Errorf("views: duplicate parameter ?%s", p)
		}
		seen[p] = true
	}
	return r.Define(Def{Name: name, Params: params, Body: body})
}

// Define registers d, replacing any existing definition of the name.
func (r *Registry) Define(d Def) error {
	if d.Name == "" || len(d.Params) == 0 || strings.TrimSpace(d.Body) == "" {
		return fmt.Errorf("views: incomplete definition")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := d
	cp.Params = append([]string(nil), d.Params...)
	r.defs[d.Name] = &cp
	return nil
}

// Undefine removes a definition, reporting whether it existed.
func (r *Registry) Undefine(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.defs[name]
	delete(r.defs, name)
	return ok
}

// Names returns the defined operator names (unsorted).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.defs))
	for n := range r.defs {
		out = append(out, n)
	}
	return out
}

// Lookup returns a copy of the named definition.
func (r *Registry) Lookup(name string) (Def, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.defs[name]
	if !ok {
		return Def{}, false
	}
	return *d, true
}

// Expand rewrites every invocation name(arg, …) of a defined operator
// in src into the definition's body with parameters substituted and
// internal variables renamed apart. Undefined names are left alone
// (they may be entities). Expansion is repeated for nested
// definitions up to maxExpansionDepth.
func (r *Registry) Expand(src string) (string, error) {
	for depth := 0; depth < maxExpansionDepth; depth++ {
		out, changed, err := r.expandOnce(src)
		if err != nil {
			return "", err
		}
		if !changed {
			return out, nil
		}
		src = out
	}
	return "", fmt.Errorf("views: expansion did not terminate (recursive definitions?)")
}

func (r *Registry) expandOnce(src string) (string, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	var b strings.Builder
	changed := false
	i := 0
	for i < len(src) {
		name, args, end, ok := r.callAtLocked(src, i)
		if !ok {
			b.WriteByte(src[i])
			i++
			continue
		}
		d := r.defs[name]
		if len(args) != len(d.Params) {
			return "", false, fmt.Errorf("views: %s takes %d arguments, got %d", name, len(d.Params), len(args))
		}
		r.fresh++
		suffix := fmt.Sprintf("_%s%d", name, r.fresh)
		sub := make(map[string]string, len(d.Params))
		for k, p := range d.Params {
			sub[p] = strings.TrimSpace(args[k])
		}
		body := varRe.ReplaceAllStringFunc(d.Body, func(v string) string {
			vn := strings.TrimPrefix(v, "?")
			if rep, isParam := sub[vn]; isParam {
				return rep
			}
			return "?" + vn + suffix
		})
		b.WriteString("[")
		b.WriteString(body)
		b.WriteString("]")
		changed = true
		i = end
	}
	return b.String(), changed, nil
}

// callAtLocked recognizes an invocation of a *defined* name starting
// at src[i]: ident '(' args ')'. It returns the name, the raw comma-
// separated argument strings, and the index just past ')'.
func (r *Registry) callAtLocked(src string, i int) (string, []string, int, bool) {
	if i > 0 {
		prev := src[i-1]
		if isIdentByte(prev) || prev == '?' {
			return "", nil, 0, false // inside a longer word or a variable
		}
	}
	j := i
	for j < len(src) && isIdentByte(src[j]) {
		j++
	}
	if j == i || j >= len(src) || src[j] != '(' {
		return "", nil, 0, false
	}
	name := src[i:j]
	if _, defined := r.defs[name]; !defined {
		return "", nil, 0, false
	}
	// Collect arguments up to the matching ')'; templates cannot
	// appear as arguments (arguments are terms), so no nesting.
	k := j + 1
	var args []string
	var cur strings.Builder
	for k < len(src) {
		switch src[k] {
		case ')':
			args = append(args, cur.String())
			return name, args, k + 1, true
		case ',':
			args = append(args, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(src[k])
		}
		k++
	}
	return "", nil, 0, false // unterminated; let the parser report it
}

func isIdentByte(c byte) bool {
	return c == '-' || c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
