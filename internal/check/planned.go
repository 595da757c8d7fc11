package check

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	lsdb "repro"
	"repro/internal/compose"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/probe"
	"repro/internal/query"
	"repro/internal/sym"
)

// plannedMaxWaves and plannedMaxPerWave cap each query's retraction:
// the point is to reach broadened queries, not to finish the search
// (and a capped wave exercises the truncation path).
const (
	plannedMaxWaves   = 2
	plannedMaxPerWave = 16
	plannedDepth      = 2
)

// plannedVsSyntactic is the query-planner differential oracle. The
// product evaluator reorders conjuncts by the matcher's estimates and
// ends a conjunction on an exact-zero estimate; refEval below evaluates
// the conjuncts as written and asks the matcher for nothing but facts.
// Both must give the same answer for generated queries over the world
// — joins through empty classes, Δ/∇ positions, comparator and ≠
// guards, free and composed relationships, ∃/∀/∨ nesting — and for
// every query of their retraction sets (§5), which is where estimates
// over broadened positions are exercised. The original queries are
// then re-run through the depth-bounded on-demand matcher, whose
// estimates are never exact and so must never end a conjunction.
//
// Join order can only be unobservable when matching is a relation, and
// the product's deliberately is not in three places (see relational);
// both sides match through that wrapper.
//
// A wrap that is not nil is applied to the product matchers, which
// lets the package's own tests plant an estimator that lies and see the
// oracle catch it.
func plannedVsSyntactic(w *gen.World, wrap func(query.Matcher) query.Matcher) error {
	if wrap == nil {
		wrap = func(m query.Matcher) query.Matcher { return m }
	}
	db := w.Build()
	v := plannedVocabulary(w)
	if len(v.facts) == 0 {
		return nil
	}
	// The oracle's own additions to its private database: sizes for
	// comparator guards and a class that exists but has no member.
	for i, e := range v.ents {
		if i < 6 {
			db.MustAssert(e, "PQ-SIZE", fmt.Sprint(10+i))
		}
	}
	db.MustAssert("PQ-HOLLOW", "isa", v.classes[0])

	eng := db.Engine()
	rel := func(m query.Matcher) relational { return relational{m, db.Universe(), db.Composer()} }
	// The facade's evaluator (closure plus composition) and the same
	// evaluator over bounded on-demand matching.
	planned, plannedB := *db.Prober().Eval, *db.Prober().Eval
	facade := rel(planned.M)
	planned.M = wrap(facade)
	plannedB.M = wrap(rel(eng.Bounded(plannedDepth)))
	ref := refEval{match: facade.Match, domain: planned.Domain()}
	refB := refEval{match: rel(eng.Bounded(plannedDepth)).Match, domain: ref.domain}
	pr := probe.New(eng, &planned)
	pr.MaxWaves, pr.MaxPerWave = plannedMaxWaves, plannedMaxPerWave
	bounded := eng.ClosureSize() <= boundedLimit

	for _, src := range plannedQueries(db, v, rand.New(rand.NewSource(w.Seed^0x9e3779b9))) {
		q, err := db.Parse(src)
		if err != nil {
			return fmt.Errorf("generated query %q does not parse: %v", src, err)
		}
		out, err := pr.Probe(q)
		if err != nil {
			out = &probe.Outcome{}
		}
		if diff := ref.compare(q, out.Result, err); diff != "" {
			return fmt.Errorf("%s: %s", src, diff)
		}
		for _, wave := range out.Waves {
			for _, e := range wave.Entries {
				res := e.Result
				if res == nil {
					res = &query.Result{}
				}
				if diff := ref.compare(e.Q, res, nil); diff != "" {
					return fmt.Errorf("%s, retraction %s: %s", src, e.Q, diff)
				}
			}
		}
		if bounded {
			res, err := plannedB.Eval(q)
			if diff := refB.compare(q, res, err); diff != "" {
				return fmt.Errorf("%s at depth %d: %s", src, plannedDepth, diff)
			}
		}
	}
	return nil
}

// relational makes a matcher answer as a relation: the same fact for
// a pattern however many of its positions happen to be bound, which
// is the premise under which join order cannot show in an answer. The
// product's matchers depart from it on purpose, to keep browsing
// output finite and Δ a wildcard, and its answers to the queries
// below have always depended on the order the planner picks:
//
//   - a free (variable, Δ or ∇) relationship yields the virtual facts
//     (≺ reflexivity, =, ≠, comparators) only once both endpoints are
//     bound (virtual.Provider.Match);
//   - a variable relationship yields composed relationships only once
//     an endpoint is bound (compose.Composer.Match);
//   - a variable that a fact binds to Δ or ∇ — (X, ≺, ?g) yields
//     (X, ≺, Δ) — is a wildcard in the atoms evaluated after it.
//
// relational keeps a free relationship to the materialized facts by
// asking with the target open and filtering, drops composed
// relationships under a variable relationship (a bound composed name
// passes), and drops facts that would bind a variable to Δ or ∇.
// Estimates pass through: they stay sound, since facts are only
// removed.
type relational struct {
	query.Matcher
	u    *fact.Universe
	comp *compose.Composer
}

func (m relational) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	wild := func(id sym.ID) bool { return id == m.u.Top || id == m.u.Bottom }
	open := func(id sym.ID) bool { return id == sym.None || wild(id) }
	ask := t
	if open(r) && !open(s) && !open(t) {
		ask = sym.None
	}
	return m.Matcher.Match(s, r, ask, func(f fact.Fact) bool {
		switch {
		case ask != t && f.T != t,
			r == sym.None && m.comp.Composed(f.R),
			s == sym.None && wild(f.S), r == sym.None && wild(f.R), t == sym.None && wild(f.T):
			return true
		}
		return fn(f)
	})
}

// plannedVocab is what a world's program talks about, in program
// order: the oracle builds its queries from names the world uses, so
// shrunk worlds keep producing queries.
type plannedVocab struct {
	facts   [][3]string // asserted facts over plain names, data and structural
	ents    []string    // their sources and targets
	rels    []string    // their non-structural relationships
	classes []string    // targets of their in/isa facts
}

var plainName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9-]*$`)

func plannedVocabulary(w *gen.World) plannedVocab {
	var v plannedVocab
	seen := map[string]bool{}
	add := func(list *[]string, kind, name string) {
		if !seen[kind+name] {
			seen[kind+name] = true
			*list = append(*list, name)
		}
	}
	for _, op := range w.Ops {
		if op.Kind != gen.OpAssert || !plainName.MatchString(op.S) || !plainName.MatchString(op.T) {
			continue
		}
		v.facts = append(v.facts, [3]string{op.S, op.R, op.T})
		add(&v.ents, "e", op.S)
		add(&v.ents, "e", op.T)
		switch op.R {
		case "in", "isa":
			add(&v.classes, "c", op.T)
		case "syn", "inv":
		default:
			add(&v.rels, "r", op.R)
		}
	}
	if len(v.classes) == 0 {
		v.classes = []string{"PQ-EMPTY"}
	}
	if len(v.rels) == 0 {
		v.rels = []string{"PQ-SIZE"}
	}
	return v
}

// plannedQueries renders one query per shape, with constants drawn
// from the world's facts (so joins have answers) and, at random,
// replaced by a Δ/∇ wildcard, an empty class or a stranger (so they
// fail and retraction has something to broaden).
func plannedQueries(db *lsdb.Database, v plannedVocab, rng *rand.Rand) []string {
	anyFact := func() [3]string { return v.facts[rng.Intn(len(v.facts))] }
	rel := func() string { return v.rels[rng.Intn(len(v.rels))] }
	ent := func() string {
		switch rng.Intn(8) {
		case 0:
			return "Δ"
		case 1:
			return "∇"
		case 2:
			return "PQ-STRANGER"
		}
		return v.ents[rng.Intn(len(v.ents))]
	}
	class := func() string {
		switch rng.Intn(4) {
		case 0:
			return "PQ-EMPTY" // not an entity of the database at all
		case 1:
			return "PQ-HOLLOW" // a class without members
		}
		return v.classes[rng.Intn(len(v.classes))]
	}
	f, g := anyFact(), anyFact()
	qs := []string{
		// Joins, the probe benchmark's reified shape among them.
		fmt.Sprintf("(?x, %s, ?y) & (?y, %s, %s)", f[1], g[1], g[2]),
		fmt.Sprintf("(?x, in, %s) & (?x, %s, ?y)", class(), rel()),
		fmt.Sprintf("(?c, in, %s) & (?e, %s, ?c) & (?e, %s, %s)", class(), rel(), rel(), ent()),
		// Broadened positions as a retraction would leave them.
		fmt.Sprintf("(?x, Δ, %s) & (?x, %s, ∇)", f[2], g[1]),
		fmt.Sprintf("(%s, %s, ?y) & (?y, Δ, ?z) & (?z, in, %s)", f[0], f[1], class()),
		// Guards over the virtual families.
		fmt.Sprintf("(?x, PQ-SIZE, ?n) & (?n, >, 12) & (?x, %s, ?y)", rel()),
		fmt.Sprintf("(?x, %s, ?y) & (?y, %s, ?z) & (?x, ≠, ?z)", f[1], g[1]),
		fmt.Sprintf("(%s, isa, ?g) & (?x, in, ?g)", f[0]),
		// A free relationship, which also ranges over compositions.
		fmt.Sprintf("(%s, ?r, ?y) & (?y, %s, ?z)", f[0], g[1]),
		// Nesting.
		fmt.Sprintf("exists ?y . (?x, %s, ?y) & (?y, %s, %s)", f[1], rel(), ent()),
		fmt.Sprintf("[(?x, %s, %s) | (?x, in, %s)] & (?x, %s, ?y)", f[1], f[2], class(), g[1]),
		fmt.Sprintf("[exists ?y . (?x, %s, ?y)] & [exists ?y . (?y, %s, ?x)]", f[1], g[1]),
		fmt.Sprintf("(?x, in, %s) & forall ?k . [(?x, %s, ?k) | (?k, ≠, %s)]", class(), f[1], f[2]),
	}
	// A bound composed relationship name, when the world composes one.
	for _, a := range db.Between(f[0], g[2]) {
		if a.Path != nil {
			qs = append(qs, fmt.Sprintf("(%s, '%s', ?z) & (?z, in, %s)", f[0], db.Name(a.Rel), class()))
			break
		}
	}
	return qs
}

// refEval is the reference evaluator: §2.7's semantics with conjuncts
// in written order, a fresh binding map per matched fact, no estimate
// and no early exit. It is kept apart from internal/query on purpose —
// it shares nothing with the planner it checks.
type refEval struct {
	match  func(s, r, t sym.ID, fn func(fact.Fact) bool) bool
	domain []sym.ID
}

type refBind map[fact.Var]sym.ID

func (b refBind) with(v fact.Var, id sym.ID) refBind {
	c := make(refBind, len(b)+1)
	for k, x := range b {
		c[k] = x
	}
	if id == sym.None {
		delete(c, v)
	} else {
		c[v] = id
	}
	return c
}

// key identifies the binding (fmt prints maps in key order).
func (b refBind) key() string { return fmt.Sprint(map[fact.Var]sym.ID(b)) }

func (r refEval) eval(f query.Formula, b refBind, emit func(refBind)) {
	switch n := f.(type) {
	case *query.Atom:
		get := func(t fact.Term) sym.ID {
			if t.IsVar() {
				return b[t.Variable] // sym.None when unbound
			}
			return t.Entity
		}
		r.match(get(n.Tpl.S), get(n.Tpl.R), get(n.Tpl.T), func(g fact.Fact) bool {
			bb, ok := b, true
			unify := func(t fact.Term, id sym.ID) {
				switch have := bb[t.Variable]; {
				case !t.IsVar():
					ok = ok && t.Entity == id
				case have == sym.None:
					bb = bb.with(t.Variable, id)
				default:
					ok = ok && have == id
				}
			}
			unify(n.Tpl.S, g.S)
			unify(n.Tpl.R, g.R)
			unify(n.Tpl.T, g.T)
			if ok {
				emit(bb)
			}
			return true
		})
	case *query.And:
		r.eval(n.L, b, func(bb refBind) { r.eval(n.R, bb, emit) })
	case *query.Or:
		r.eval(n.L, b, emit)
		r.eval(n.R, b, emit)
	case *query.Exists:
		r.eval(n.Body, b, func(bb refBind) { emit(bb.with(n.V, sym.None)) })
	case *query.Forall:
		if len(r.domain) == 0 {
			emit(b)
			return
		}
		var common map[string]refBind
		for i, e := range r.domain {
			cur := map[string]refBind{}
			r.eval(n.Body, b.with(n.V, e), func(bb refBind) {
				out := bb.with(n.V, sym.None)
				cur[out.key()] = out
			})
			if i == 0 {
				common = cur
			}
			for k := range common {
				if _, ok := cur[k]; !ok {
					delete(common, k)
				}
			}
		}
		for _, bb := range common {
			emit(bb)
		}
	default:
		panic(fmt.Sprintf("check: unknown formula node %T", f))
	}
}

// answer returns q's distinct tuples in the evaluator's order, and
// whether some satisfying assignment leaves a free variable unbound
// (which the product reports as an unsafe-query error).
func (r refEval) answer(q *query.Query) (tuples [][]sym.ID, satisfied, unsafe bool) {
	seen := map[string]bool{}
	r.eval(q.Root, refBind{}, func(b refBind) {
		satisfied = true
		tuple := make([]sym.ID, len(q.Free))
		for i, v := range q.Free {
			if tuple[i] = b[v]; tuple[i] == sym.None {
				unsafe = true
				return
			}
		}
		if k := fmt.Sprint(tuple); !seen[k] {
			seen[k] = true
			tuples = append(tuples, tuple)
		}
	})
	sort.Slice(tuples, func(i, j int) bool {
		for k := range tuples[i] {
			if tuples[i][k] != tuples[j][k] {
				return tuples[i][k] < tuples[j][k]
			}
		}
		return false
	})
	return tuples, satisfied, unsafe
}

// compare returns "" when the product's answer (or error) for q is the
// reference's, else a description of the first difference.
func (r refEval) compare(q *query.Query, got *query.Result, err error) string {
	want, satisfied, unsafe := r.answer(q)
	u := q.Universe()
	row := func(t []sym.ID) string {
		names := make([]string, len(t))
		for i, id := range t {
			names[i] = u.Name(id)
		}
		return "(" + strings.Join(names, ", ") + ")"
	}
	switch {
	case err != nil && unsafe:
		return ""
	case err != nil:
		return fmt.Sprintf("planned evaluation fails (%v), the reference answers %d tuples", err, len(want))
	case unsafe:
		return "the reference finds an assignment with an unbound free variable, planned evaluation reports none"
	case got.True != satisfied:
		return fmt.Sprintf("planned truth %v, reference %v", got.True, satisfied)
	case q.IsProposition():
		return ""
	case len(got.Tuples) != len(want):
		return fmt.Sprintf("planned evaluation answers %d tuples, the reference %d", len(got.Tuples), len(want))
	}
	for i := range want {
		if fmt.Sprint(got.Tuples[i]) != fmt.Sprint(want[i]) {
			return fmt.Sprintf("tuple %d: planned %s, reference %s", i, row(got.Tuples[i]), row(want[i]))
		}
	}
	return ""
}
