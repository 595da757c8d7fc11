// Package probe implements the second browsing style of the paper:
// probing with automatic retraction (§5).
//
// Probing is hit-and-miss querying by a user with limited familiarity
// with the database; it is characterized by frequent failures. Every
// failure is interpreted as overqualification ("overzooming") of the
// target data: the system automatically attempts the query's
// retraction set — all minimally broader queries, obtained by
// replacing one occurrence of one entity with one of its minimal
// generalizations (§5.1) — and reports every success together with
// the generalization performed. If a whole wave of retraction queries
// fails, the process repeats one level higher in the broadness
// hierarchy, until some retrieval succeeds or the space is exhausted
// (§5.2).
//
// A Prober is safe for concurrent use once configured: a probe issues
// many closure reads (the original query, then whole waves of
// retraction queries), all of which resolve against the engine's
// published immutable closure snapshot without locking.
package probe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fact"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/sym"
)

// Prober runs automatic retraction for failed queries.
type Prober struct {
	Eng  *rules.Engine
	Eval *query.Evaluator

	// MaxWaves bounds how many levels of the broadness hierarchy are
	// explored before giving up (the user "abandoning" the process).
	MaxWaves int
	// MaxPerWave bounds the number of retraction queries attempted in
	// one wave, as a safety valve on very wide generalization fans.
	MaxPerWave int
}

// New returns a prober with paper-faithful defaults.
func New(eng *rules.Engine, eval *query.Evaluator) *Prober {
	return &Prober{Eng: eng, Eval: eval, MaxWaves: 8, MaxPerWave: 4096}
}

// Change records one generalization step applied to a query.
type Change struct {
	// From was replaced by To (entities), unless Deleted is set, in
	// which case an over-generalized template was dropped (§5.2).
	From, To sym.ID
	Deleted  bool
	// Atom and Pos locate the occurrence: Atom indexes the query's
	// atoms in syntactic order, Pos is 0 (source), 1 (relationship)
	// or 2 (target).
	Atom, Pos int
}

// Describe renders the change the way the paper's menu does.
func (c Change) Describe(u *fact.Universe) string {
	if c.Deleted {
		return "dropping an unrestrictive template"
	}
	return fmt.Sprintf("%s instead of %s", u.Name(c.To), u.Name(c.From))
}

// Entry is one attempted retraction query.
type Entry struct {
	Q *query.Query
	// Changes is the chain of generalizations from the original
	// query to Q (length equals the wave level).
	Changes []Change
	// Result is nil when the retraction query also failed.
	Result *query.Result
}

// Succeeded reports whether this retraction query returned data.
func (e *Entry) Succeeded() bool { return e.Result != nil && e.Result.True }

// Wave is one level of the retraction process.
type Wave struct {
	Level   int
	Entries []Entry
}

// Successes returns the entries of the wave that returned data.
func (w *Wave) Successes() []Entry {
	var out []Entry
	for _, e := range w.Entries {
		if e.Succeeded() {
			out = append(out, e)
		}
	}
	return out
}

// Outcome is the complete result of probing one query.
type Outcome struct {
	Original *query.Query
	// Result is the original query's value; if it is non-empty no
	// retraction was needed.
	Result *query.Result
	// Waves are the retraction levels attempted, in order. The last
	// wave is the one containing successes, if any.
	Waves []Wave
	// Critical reports the §5.2 "critical point": the original query
	// failed but every query in its retraction set succeeded — every
	// broader query is answerable, so the failure is isolated exactly
	// at the original's conjunction of conditions.
	Critical bool
	// Exhausted reports that retraction ran out of broader queries
	// (or hit MaxWaves) without any success.
	Exhausted bool
	// Truncated reports that some wave reached MaxPerWave: the wave
	// ended there, and the retraction queries it had not reached were
	// neither tried nor broadened further.
	Truncated bool
	// Unknown lists query constants that are not database entities
	// (§5.2: such positions are never replaced, and their queries are
	// reported as "no such database entities").
	Unknown []sym.ID
}

// Succeeded reports whether the original query returned data.
func (o *Outcome) Succeeded() bool { return o.Result != nil && o.Result.True }

// Probe evaluates q and, on failure, runs automatic retraction.
func (p *Prober) Probe(q *query.Query) (*Outcome, error) {
	out := &Outcome{Original: q}
	res, err := p.Eval.Eval(q)
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.Unknown = p.unknownEntities(q)
	if res.True {
		return out, nil
	}

	maxWaves := p.MaxWaves
	if maxWaves <= 0 {
		maxWaves = 8
	}
	maxPerWave := p.MaxPerWave
	if maxPerWave <= 0 {
		maxPerWave = 4096
	}

	type node struct {
		q       *query.Query
		changes []Change
	}
	frontier := []node{{q: q}}
	subs := make(substitutes)
	key := appendKey(nil, q.Root, nil)
	seen := map[string]struct{}{string(key): {}}

	for level := 1; level <= maxWaves && len(frontier) > 0; level++ {
		wave := Wave{Level: level}
		var next []node
	fill:
		for _, nd := range frontier {
			for _, c := range p.retractions(nd.q, subs) {
				key = appendKey(key[:0], nd.q.Root, &c)
				if _, dup := seen[string(key)]; dup {
					continue
				}
				if len(wave.Entries) >= maxPerWave {
					out.Truncated = true
					break fill
				}
				seen[string(key)] = struct{}{}
				ret := apply(nd.q, c)
				chain := append(append([]Change(nil), nd.changes...), c)
				res, err := p.Eval.Eval(ret)
				if err != nil {
					return nil, err
				}
				entry := Entry{Q: ret, Changes: chain}
				if res.True {
					entry.Result = res
				} else {
					next = append(next, node{q: ret, changes: chain})
				}
				wave.Entries = append(wave.Entries, entry)
			}
		}
		if len(wave.Entries) == 0 {
			break
		}
		out.Waves = append(out.Waves, wave)
		succ := wave.Successes()
		if len(succ) > 0 {
			if level == 1 && len(succ) == len(wave.Entries) {
				out.Critical = true
			}
			return out, nil
		}
		frontier = next
	}
	out.Exhausted = true
	return out, nil
}

// substitutes memoizes, for one Probe call, what each constant is
// replaced with per position kind: the queries of a probe share
// nearly all their constants, and each answer costs closure reads.
type substitutes map[substituteKey][]sym.ID

type substituteKey struct {
	e      sym.ID
	source bool
}

// retractions computes the retraction set of q (§5.1) as the changes
// that produce it: one minimally broader query per (entity occurrence,
// minimal generalization) pair, plus the deletion of templates that
// have become unrestrictive (§5.2). Occurrences of the built-in
// special entities are not generalized. apply builds a change's query.
func (p *Prober) retractions(q *query.Query, subs substitutes) []Change {
	u := p.Eng.Universe()
	var out []Change
	atoms := q.Atoms()
	for ai, atom := range atoms {
		terms := [3]fact.Term{atom.Tpl.S, atom.Tpl.R, atom.Tpl.T}
		if degenerate(u, terms) {
			if len(atoms) > 1 { // the whole query is never deleted
				out = append(out, Change{Deleted: true, Atom: ai})
			}
			continue
		}
		for pos, term := range terms {
			if term.IsVar() {
				continue
			}
			e := term.Entity
			if u.Special(e) || e == u.Top || e == u.Bottom {
				continue
			}
			// Broadening direction per position follows the §3.1
			// inference rules: a fact about a source transfers to its
			// specializations (rule 1), while relationships and
			// targets transfer to their generalizations (rules 2, 3).
			// So the broader query uses a *specialization* in the
			// source position (the paper's FRESHMAN instead of
			// STUDENT) and a *generalization* elsewhere (ATTENDED
			// instead of GRADUATE-OF, CHEAP instead of FREE).
			k := substituteKey{e, pos == 0}
			with, ok := subs[k]
			if !ok {
				if k.source {
					with = p.MinimalSpecs(e)
				} else {
					with = p.MinimalGens(e)
				}
				subs[k] = with
			}
			for _, sub := range with {
				out = append(out, Change{From: e, To: sub, Atom: ai, Pos: pos})
			}
		}
	}
	return out
}

// degenerate reports whether every position of the template is a
// variable, Δ, or ∇ — a "weak restriction, frequently meaningless"
// whose generalization is deletion (§5.2).
func degenerate(u *fact.Universe, terms [3]fact.Term) bool {
	for _, t := range terms {
		if t.IsVar() {
			continue
		}
		if t.Entity == u.Top || t.Entity == u.Bottom {
			continue
		}
		return false
	}
	return true
}

// MinimalGens returns the minimal generalizations of e (§5.1): the
// entities E' with (e,≺,E') in the closure, e ≠ E', no synonym loop,
// and no third entity strictly between. An entity with no stored
// generalization has Δ as its only minimal generalization; an entity
// that does not occur in the database at all (and is not a number)
// has none — it "will never be replaced" (§5.2).
func (p *Prober) MinimalGens(e sym.ID) []sym.ID {
	u := p.Eng.Universe()
	if e == u.Top {
		return nil
	}
	c := p.Eng.Closure()
	if !c.HasEntity(e) {
		if _, isNum := u.Number(e); !isNum {
			return nil
		}
		return []sym.ID{u.Top}
	}

	isGen := func(a, b sym.ID) bool {
		return c.Has(fact.Fact{S: a, R: u.Gen, T: b})
	}
	var parents []sym.ID
	c.Match(e, u.Gen, sym.None, func(f fact.Fact) bool {
		t := f.T
		if t == e || t == u.Top || t == u.Bottom {
			return true
		}
		if isGen(t, e) {
			return true // synonym of e, not a proper generalization
		}
		parents = append(parents, t)
		return true
	})
	if len(parents) == 0 {
		return []sym.ID{u.Top}
	}
	var minimal []sym.ID
	for _, cand := range parents {
		isMin := true
		for _, other := range parents {
			if other == cand {
				continue
			}
			// other strictly below cand ⇒ cand is not minimal.
			if isGen(other, cand) && !isGen(cand, other) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, cand)
		}
	}
	sort.Slice(minimal, func(i, j int) bool { return u.Name(minimal[i]) < u.Name(minimal[j]) })
	return dedupe(minimal)
}

// MinimalSpecs returns the minimal specializations of e: the entities
// E' with (E',≺,e) in the closure, no synonym loop, and no third
// entity strictly between. An entity with no stored specialization
// has ∇ as its only minimal specialization (§5.2: entities are
// eventually replaced with Δ or ∇). Used for the source position of
// retraction queries.
func (p *Prober) MinimalSpecs(e sym.ID) []sym.ID {
	u := p.Eng.Universe()
	if e == u.Bottom {
		return nil
	}
	c := p.Eng.Closure()
	if !c.HasEntity(e) {
		if _, isNum := u.Number(e); !isNum {
			return nil
		}
		return []sym.ID{u.Bottom}
	}

	isGen := func(a, b sym.ID) bool {
		return c.Has(fact.Fact{S: a, R: u.Gen, T: b})
	}
	var children []sym.ID
	c.Match(sym.None, u.Gen, e, func(f fact.Fact) bool {
		s := f.S
		if s == e || s == u.Top || s == u.Bottom {
			return true
		}
		if isGen(e, s) {
			return true // synonym of e
		}
		children = append(children, s)
		return true
	})
	if len(children) == 0 {
		return []sym.ID{u.Bottom}
	}
	var minimal []sym.ID
	for _, cand := range children {
		isMin := true
		for _, other := range children {
			if other == cand {
				continue
			}
			// other strictly above cand ⇒ cand is not the minimal step.
			if isGen(cand, other) && !isGen(other, cand) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, cand)
		}
	}
	sort.Slice(minimal, func(i, j int) bool { return u.Name(minimal[i]) < u.Name(minimal[j]) })
	return dedupe(minimal)
}

func dedupe(ids []sym.ID) []sym.ID {
	out := ids[:0]
	var last sym.ID
	for i, id := range ids {
		if i == 0 || id != last {
			out = append(out, id)
		}
		last = id
	}
	return out
}

// unknownEntities lists the constants of q that are not database
// entities: not in the closure's active domain, not numbers, not
// special (§5.2 "no such database entities").
func (p *Prober) unknownEntities(q *query.Query) []sym.ID {
	u := p.Eng.Universe()
	c := p.Eng.Closure()
	seen := make(map[sym.ID]struct{})
	var out []sym.ID
	for _, atom := range q.Atoms() {
		for _, term := range [3]fact.Term{atom.Tpl.S, atom.Tpl.R, atom.Tpl.T} {
			if term.IsVar() {
				continue
			}
			e := term.Entity
			if u.Special(e) || e == u.Top || e == u.Bottom {
				continue
			}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			if c.HasEntity(e) {
				continue
			}
			if _, isNum := u.Number(e); isNum {
				continue
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return u.Name(out[i]) < u.Name(out[j]) })
	return out
}

// apply returns q with change c applied: the atom's position replaced,
// or the atom deleted. Deleting an atom from a conjunction keeps the
// other conjuncts; quantifiers over a deleted body are deleted with
// it. Formulas are immutable once built, so the new query shares q's
// variable names and untouched atoms.
func apply(q *query.Query, c Change) *query.Query {
	idx := -1
	var rebuild func(f query.Formula) query.Formula
	rebuild = func(f query.Formula) query.Formula {
		switch n := f.(type) {
		case *query.Atom:
			idx++
			if idx != c.Atom {
				return n
			}
			if c.Deleted {
				return nil
			}
			a := *n
			*termAt(&a.Tpl, c.Pos) = fact.E(c.To)
			return &a
		case *query.And:
			l, r := rebuild(n.L), rebuild(n.R)
			if l == nil || r == nil {
				return orElse(l, r)
			}
			return &query.And{L: l, R: r}
		case *query.Or:
			l, r := rebuild(n.L), rebuild(n.R)
			if l == nil || r == nil {
				return orElse(l, r)
			}
			return &query.Or{L: l, R: r}
		case *query.Exists:
			if b := rebuild(n.Body); b != nil {
				return &query.Exists{V: n.V, Body: b}
			}
			return nil
		case *query.Forall:
			if b := rebuild(n.Body); b != nil {
				return &query.Forall{V: n.V, Body: b}
			}
			return nil
		default:
			return f
		}
	}
	return query.NewQuery(q.Universe(), rebuild(q.Root), q.Names)
}

func orElse(l, r query.Formula) query.Formula {
	if l != nil {
		return l
	}
	return r
}

// termAt addresses position pos (0 source, 1 relationship, 2 target).
func termAt(tp *fact.Template, pos int) *fact.Term {
	switch pos {
	case 0:
		return &tp.S
	case 1:
		return &tp.R
	default:
		return &tp.T
	}
}

// appendKey appends to buf a structural key of formula f with change
// c applied (nil: f itself), without building the changed formula.
// Two queries of one probe have equal keys exactly when they render
// to the same text, which is what makes a retraction a duplicate: a
// conjunction is keyed as the run of its conjuncts (& is associative
// and renders without brackets), and a deletion collapses the nodes
// above the atom the way apply does.
func appendKey(buf []byte, f query.Formula, c *Change) []byte {
	k := keyer{buf: buf, c: c}
	k.formula(f)
	return k.buf
}

type keyer struct {
	buf  []byte
	c    *Change
	atom int // atoms keyed so far
}

func (k *keyer) term(t fact.Term) {
	tag, id := byte('e'), uint32(t.Entity)
	if t.IsVar() {
		tag, id = 'v', uint32(t.Variable)
	}
	k.buf = append(k.buf, tag, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// formula keys f and reports whether anything of it is left.
func (k *keyer) formula(f query.Formula) bool {
	switch n := f.(type) {
	case *query.Atom:
		tpl := n.Tpl
		if k.c != nil && k.atom == k.c.Atom {
			if k.c.Deleted {
				k.atom++
				return false
			}
			*termAt(&tpl, k.c.Pos) = fact.E(k.c.To)
		}
		k.atom++
		k.term(tpl.S)
		k.term(tpl.R)
		k.term(tpl.T)
		return true
	case *query.And:
		l := k.formula(n.L)
		return k.formula(n.R) || l
	case *query.Or:
		mark := len(k.buf)
		k.buf = append(k.buf, '[')
		if !k.formula(n.L) {
			k.buf = k.buf[:mark]
			return k.formula(n.R)
		}
		mid := len(k.buf)
		k.buf = append(k.buf, '|')
		if !k.formula(n.R) {
			// Only the left branch is left: drop the brackets.
			k.buf = append(k.buf[:mark], k.buf[mark+1:mid]...)
			return true
		}
		k.buf = append(k.buf, ']')
		return true
	case *query.Exists:
		return k.quantified('E', n.V, n.Body)
	case *query.Forall:
		return k.quantified('A', n.V, n.Body)
	default:
		panic(fmt.Sprintf("probe: unknown formula node %T", f))
	}
}

func (k *keyer) quantified(tag byte, v fact.Var, body query.Formula) bool {
	mark := len(k.buf)
	k.buf = append(k.buf, tag)
	k.term(fact.V(v))
	k.buf = append(k.buf, '{')
	if !k.formula(body) {
		k.buf = k.buf[:mark]
		return false
	}
	k.buf = append(k.buf, '}')
	return true
}

// Successes returns every successful retraction entry across all
// waves, in the order the §5.2 menu numbers them.
func (o *Outcome) Successes() []Entry {
	var out []Entry
	for _, w := range o.Waves {
		out = append(out, w.Successes()...)
	}
	return out
}

// Select returns the i-th menu item (1-based, matching the "You may
// select" numbering of §5.2).
func (o *Outcome) Select(i int) (Entry, bool) {
	succ := o.Successes()
	if i < 1 || i > len(succ) {
		return Entry{}, false
	}
	return succ[i-1], true
}

// Menu renders the outcome the way §5.2 presents it to the user.
func (o *Outcome) Menu(u *fact.Universe) string {
	var b strings.Builder
	if o.Succeeded() {
		fmt.Fprintf(&b, "Query succeeded (%d tuples).\n", len(o.Result.Tuples))
		return b.String()
	}
	if len(o.Unknown) > 0 && len(o.Waves) == 0 {
		b.WriteString("Query failed: no such database entities:")
		for _, e := range o.Unknown {
			b.WriteString(" ")
			b.WriteString(u.Name(e))
		}
		b.WriteString("\n")
		return b.String()
	}
	b.WriteString("Query failed. Retrying:\n")
	item := 0
	for _, w := range o.Waves {
		for _, e := range w.Entries {
			if !e.Succeeded() {
				continue
			}
			item++
			descs := make([]string, len(e.Changes))
			for i, c := range e.Changes {
				descs[i] = c.Describe(u)
			}
			fmt.Fprintf(&b, "%d. Success with %s\n", item, strings.Join(descs, ", "))
		}
	}
	if item == 0 {
		if len(o.Unknown) > 0 {
			b.WriteString("No broader query succeeded; no such database entities:")
			for _, e := range o.Unknown {
				b.WriteString(" ")
				b.WriteString(u.Name(e))
			}
			b.WriteString("\n")
		} else {
			b.WriteString("No broader query succeeded.\n")
		}
		if o.Truncated {
			b.WriteString("The search was capped: not every broader query was tried.\n")
		}
		return b.String()
	}
	b.WriteString("You may select:\n")
	return b.String()
}
