package query

import (
	"fmt"
	"sort"
	"strconv"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/sym"
)

// Matcher answers template matches against the database closure.
// *rules.Engine satisfies it; the lsdb facade layers composition
// matching on top so that a template like (JOHN, ?x, MARY) also binds
// ?x to composed relationships (§3.7).
type Matcher interface {
	Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool
}

// Estimator is an optional Matcher extension: an O(1) selectivity
// estimate for a pattern. When available, the evaluator orders
// conjuncts by estimated cardinality instead of the bound-position
// heuristic.
type Estimator interface {
	EstimateCount(src, rel, tgt sym.ID) int
}

// Evaluator evaluates queries against a Matcher.
type Evaluator struct {
	M Matcher
	// Domain supplies the active domain for ∀ quantification: the
	// entities of the database closure. Required if queries use forall.
	Domain func() []sym.ID
	// Limit caps the number of result tuples (0 = unlimited).
	Limit int
}

// Result is the value of a query (§2.7): for an open formula, the set
// of tuples of entities satisfying it; for a proposition, a truth
// value.
type Result struct {
	// Vars are the output column names (surface names of the free
	// variables, in first-occurrence order).
	Vars []string
	// Tuples are the satisfying assignments, one entity per Var.
	Tuples [][]sym.ID
	// True reports satisfaction for propositions; for open formulas
	// it is len(Tuples) > 0.
	True bool
}

// Empty reports whether the query failed (§5: "failure" of a query is
// an empty answer — the trigger for probing retraction).
func (r *Result) Empty() bool { return !r.True }

type bind map[fact.Var]sym.ID

func (b bind) clone() bind {
	c := make(bind, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Eval computes the value of q.
func (ev *Evaluator) Eval(q *Query) (*Result, error) {
	res := &Result{}
	for _, v := range q.Free {
		res.Vars = append(res.Vars, q.VarName(v))
	}
	seen := make(map[string]struct{})
	var evalErr error
	ev.eval(q.Root, bind{}, func(b bind) bool {
		tuple := make([]sym.ID, len(q.Free))
		for i, v := range q.Free {
			id, ok := b[v]
			if !ok {
				evalErr = fmt.Errorf("query: unsafe query: free variable ?%s not bound by every disjunct", q.VarName(v))
				return false
			}
			tuple[i] = id
		}
		key := tupleKey(tuple)
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
		res.Tuples = append(res.Tuples, tuple)
		res.True = true
		if len(q.Free) == 0 {
			return false // a proposition needs one witness only
		}
		return ev.Limit == 0 || len(res.Tuples) < ev.Limit
	})
	if evalErr != nil {
		return nil, evalErr
	}
	sortTuples(res.Tuples)
	return res, nil
}

func tupleKey(t []sym.ID) string {
	buf := make([]byte, 0, 8*len(t))
	for _, id := range t {
		buf = strconv.AppendUint(buf, uint64(id), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

func sortTuples(ts [][]sym.ID) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// eval enumerates extensions of b satisfying f, passing each to emit;
// it stops early when emit returns false and reports completion.
func (ev *Evaluator) eval(f Formula, b bind, emit func(bind) bool) bool {
	switch n := f.(type) {
	case *Atom:
		return ev.evalAtom(n, b, emit)
	case *And:
		// Flatten the conjunction and evaluate with a greedy
		// most-bound-first join order.
		conj := flattenAnd(n)
		return ev.evalConj(conj, b, emit)
	case *Or:
		if !ev.eval(n.L, b, emit) {
			return false
		}
		return ev.eval(n.R, b, emit)
	case *Exists:
		// Evaluate the body and project the quantified variable out.
		// Deduplication happens at collection time.
		return ev.eval(n.Body, b, func(bb bind) bool {
			out := bb.clone()
			delete(out, n.V)
			return emit(out)
		})
	case *Forall:
		return ev.evalForall(n, b, emit)
	default:
		panic(fmt.Sprintf("query: unknown formula node %T", f))
	}
}

func flattenAnd(f Formula) []Formula {
	if a, ok := f.(*And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []Formula{f}
}

// evalConj joins the conjuncts, choosing at each step the most
// selective conjunct. With an Estimator the choice uses O(1) index
// cardinality estimates; otherwise a bound-position heuristic (bound
// relationship weighted higher). Non-atom conjuncts go last.
func (ev *Evaluator) evalConj(conj []Formula, b bind, emit func(bind) bool) bool {
	if len(conj) == 0 {
		return emit(b)
	}
	est, hasEst := ev.M.(Estimator)
	best, bestScore := 0, -1<<30
	for i, f := range conj {
		score := -1 << 29 // non-atoms go last
		if a, ok := f.(*Atom); ok {
			s, r, t := resolveTpl(a.Tpl, b)
			if hasEst {
				// Negated cardinality: fewer matching facts is better.
				// A zero estimate with an unbound endpoint is usually a
				// virtual guard (math, ≠) whose enumeration ranges over
				// the whole domain — schedule it late, when other atoms
				// have bound its variables. A zero estimate with both
				// endpoints bound is a cheap O(1) check: front-load it.
				n := est.EstimateCount(s, r, t)
				score = -n
				if n == 0 && (s == sym.None || t == sym.None) {
					score = -1 << 28
				}
			} else {
				score = 0
				if s != sym.None {
					score++
				}
				if r != sym.None {
					score += 2
				}
				if t != sym.None {
					score++
				}
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	rest := make([]Formula, 0, len(conj)-1)
	rest = append(rest, conj[:best]...)
	rest = append(rest, conj[best+1:]...)
	return ev.eval(conj[best], b, func(bb bind) bool {
		return ev.evalConj(rest, bb, emit)
	})
}

func resolveTpl(tp fact.Template, b bind) (s, r, t sym.ID) {
	get := func(term fact.Term) sym.ID {
		if !term.IsVar() {
			return term.Entity
		}
		if id, ok := b[term.Variable]; ok {
			return id
		}
		return sym.None
	}
	return get(tp.S), get(tp.R), get(tp.T)
}

func (ev *Evaluator) evalAtom(a *Atom, b bind, emit func(bind) bool) bool {
	s, r, t := resolveTpl(a.Tpl, b)
	return ev.M.Match(s, r, t, func(f fact.Fact) bool {
		bb := b.clone()
		if unify(a.Tpl, f, bb) {
			return emit(bb)
		}
		return true
	})
}

func unify(tp fact.Template, f fact.Fact, b bind) bool {
	u := func(term fact.Term, id sym.ID) bool {
		if !term.IsVar() {
			return term.Entity == id
		}
		if have, ok := b[term.Variable]; ok {
			return have == id
		}
		b[term.Variable] = id
		return true
	}
	return u(tp.S, f.S) && u(tp.R, f.R) && u(tp.T, f.T)
}

// evalForall evaluates (∀x)A under binding b. The quantifier ranges
// over the active domain (§2.7 gives formulas standard first-order
// semantics; the domain of a logic database is its entity set). If A
// has free variables besides x that are unbound in b, the result is
// the intersection over all domain values of x of A's satisfying
// assignments for those variables.
func (ev *Evaluator) evalForall(n *Forall, b bind, emit func(bind) bool) bool {
	if ev.Domain == nil {
		panic("query: forall evaluation requires Evaluator.Domain")
	}
	domain := ev.Domain()
	if len(domain) == 0 {
		return emit(b) // vacuously true
	}

	// Candidate extensions common to every value of x.
	var common map[string]bind
	for i, e := range domain {
		bb := b.clone()
		bb[n.V] = e
		cur := make(map[string]bind)
		ev.eval(n.Body, bb, func(res bind) bool {
			out := res.clone()
			delete(out, n.V)
			cur[bindKey(out)] = out
			return true
		})
		if i == 0 {
			common = cur
		} else {
			for k := range common {
				if _, ok := cur[k]; !ok {
					delete(common, k)
				}
			}
		}
		if len(common) == 0 {
			return true // unsatisfiable; complete
		}
	}
	keys := make([]string, 0, len(common))
	for k := range common {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !emit(common[k]) {
			return false
		}
	}
	return true
}

func bindKey(b bind) string {
	vars := make([]fact.Var, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	buf := make([]byte, 0, 16*len(vars))
	for _, v := range vars {
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(b[v]), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}
