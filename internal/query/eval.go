package query

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Matcher answers template matches against the database closure.
// *rules.Engine satisfies it; the lsdb facade layers composition
// matching on top so that a template like (JOHN, ?x, MARY) also binds
// ?x to composed relationships (§3.7).
type Matcher interface {
	Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool
	// EstimateCount returns an O(1) planning figure for the number of
	// facts Match yields for the pattern. exact reports that Match
	// yields exactly n facts; otherwise n only ranks patterns against
	// each other (it may miss inferred or virtual facts). The evaluator
	// orders conjuncts by n and takes an exact 0 as proof that the
	// conjunction has no answer.
	EstimateCount(src, rel, tgt sym.ID) (n int, exact bool)
}

// Evaluator evaluates queries against a Matcher. It holds no per-query
// state and is safe for concurrent use once configured.
type Evaluator struct {
	M Matcher
	// Domain supplies the active domain for ∀ quantification: the
	// entities of the database closure. Required if queries use forall.
	Domain func() []sym.ID
	// Limit caps the number of result tuples (0 = unlimited).
	Limit int

	// Evaluation counters (SetMetrics); nil-safe no-ops when unwired.
	enumerated    *obs.Histogram
	shortcircuits *obs.Counter
}

// SetMetrics registers the evaluator's counters in r: how many facts
// one Eval enumerated from the Matcher, and how many conjunctions an
// exact-zero estimate ended before any fact was enumerated. Call
// before sharing the evaluator across goroutines.
func (ev *Evaluator) SetMetrics(r *obs.Registry) {
	ev.enumerated = r.Histogram("lsdb_query_facts_enumerated")
	ev.shortcircuits = r.Counter("lsdb_query_empty_shortcircuits_total")
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

// run is the state of one Eval. Bindings are a slot array indexed by
// variable (sym.None = unbound): a matched fact binds slots in place
// and the binder undoes them when the continuation returns, so
// backtracking allocates nothing per fact.
type run struct {
	ev            *Evaluator
	slots         []sym.ID
	enumerated    int
	shortcircuits uint64
}

// Eval computes the value of q.
func (ev *Evaluator) Eval(q *Query) (*Result, error) {
	res := &Result{}
	for _, v := range q.Free {
		res.Vars = append(res.Vars, q.VarName(v))
	}
	r := &run{ev: ev, slots: make([]sym.ID, q.MaxVar()+1)}
	seen := make(map[string]struct{})
	var evalErr error
	r.eval(q.Root, func() bool {
		tuple := make([]sym.ID, len(q.Free))
		for i, v := range q.Free {
			id := r.slots[v]
			if id == sym.None {
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
	ev.enumerated.Observe(int64(r.enumerated))
	ev.shortcircuits.Add(r.shortcircuits)
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

// eval enumerates the extensions of the current binding that satisfy
// f, calling emit with each in r.slots; it stops early when emit
// returns false and reports completion. The slots are as it found
// them when it returns.
func (r *run) eval(f Formula, emit func() bool) bool {
	switch n := f.(type) {
	case *Atom:
		return r.evalAtom(n, emit)
	case *And:
		return r.evalConj(flattenAnd(n, nil), emit)
	case *Or:
		return r.eval(n.L, emit) && r.eval(n.R, emit)
	case *Exists:
		// Evaluate the body and project the quantified variable out.
		// Deduplication happens at collection time.
		return r.eval(n.Body, func() bool {
			bound := r.slots[n.V]
			r.slots[n.V] = sym.None
			ok := emit()
			r.slots[n.V] = bound
			return ok
		})
	case *Forall:
		return r.evalForall(n, emit)
	default:
		panic(fmt.Sprintf("query: unknown formula node %T", f))
	}
}

func flattenAnd(f Formula, out []Formula) []Formula {
	if a, ok := f.(*And); ok {
		return flattenAnd(a.R, flattenAnd(a.L, out))
	}
	return append(out, f)
}

// evalConj joins the conjuncts, choosing at each step the atom the
// Matcher estimates to match the fewest facts under the current
// binding. An atom whose estimate is an exact 0 ends the conjunction
// at once: nothing can extend the binding. An inexact 0 with a free
// endpoint is usually a virtual guard (math, ≠) whose enumeration
// ranges over the whole domain, so it waits until other atoms have
// bound its variables; an inexact 0 with both endpoints bound is a
// cheap O(1) check and goes first. Non-atom conjuncts go last. conj is
// reordered in place and restored before returning.
func (r *run) evalConj(conj []Formula, emit func() bool) bool {
	if len(conj) == 0 {
		return emit()
	}
	best, bestScore := 0, -1<<30
	for i, f := range conj {
		score := -1 << 29 // non-atoms go last
		if a, ok := f.(*Atom); ok {
			s, rel, t := r.resolve(a.Tpl)
			n, exact := r.ev.M.EstimateCount(s, rel, t)
			if n == 0 && exact {
				r.shortcircuits++
				return true
			}
			// Negated cardinality: fewer matching facts is better.
			score = -n
			if n == 0 && (s == sym.None || t == sym.None) {
				score = -1 << 28
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	conj[0], conj[best] = conj[best], conj[0]
	done := r.eval(conj[0], func() bool { return r.evalConj(conj[1:], emit) })
	conj[0], conj[best] = conj[best], conj[0]
	return done
}

func (r *run) term(t fact.Term) sym.ID {
	if t.IsVar() {
		return r.slots[t.Variable]
	}
	return t.Entity
}

// resolve instantiates tp under the current binding; unbound
// variables become the sym.None wildcard.
func (r *run) resolve(tp fact.Template) (s, rel, t sym.ID) {
	return r.term(tp.S), r.term(tp.R), r.term(tp.T)
}

// unify binds the unbound variable of term to id, or checks id against
// what the term already denotes.
func (r *run) unify(term fact.Term, id sym.ID) bool {
	if have := r.term(term); have != sym.None {
		return have == id
	}
	r.slots[term.Variable] = id
	return true
}

func (r *run) evalAtom(a *Atom, emit func() bool) bool {
	tp := a.Tpl
	s, rel, t := r.resolve(tp)
	return r.ev.M.Match(s, rel, t, func(f fact.Fact) bool {
		r.enumerated++
		cont := !(r.unify(tp.S, f.S) && r.unify(tp.R, f.R) && r.unify(tp.T, f.T)) || emit()
		// Undo what the fact bound: the positions that were open on entry.
		if s == sym.None {
			r.slots[tp.S.Variable] = sym.None
		}
		if rel == sym.None {
			r.slots[tp.R.Variable] = sym.None
		}
		if t == sym.None {
			r.slots[tp.T.Variable] = sym.None
		}
		return cont
	})
}

// evalForall evaluates (∀x)A under the current binding. The quantifier
// ranges over the active domain (§2.7 gives formulas standard
// first-order semantics; the domain of a logic database is its entity
// set). If A has free variables besides x that are still unbound, the
// result is the intersection over all domain values of x of A's
// satisfying assignments for those variables.
func (r *run) evalForall(n *Forall, emit func() bool) bool {
	if r.ev.Domain == nil {
		panic("query: forall evaluation requires Evaluator.Domain")
	}
	domain := r.ev.Domain()
	if len(domain) == 0 {
		return emit() // vacuously true
	}
	entry := append([]sym.ID(nil), r.slots...)
	defer copy(r.slots, entry)

	// Candidate extensions common to every value of x, as snapshots of
	// the slots with x projected out.
	var common map[string][]sym.ID
	for i, e := range domain {
		cur := make(map[string][]sym.ID)
		r.slots[n.V] = e
		r.eval(n.Body, func() bool {
			r.slots[n.V] = sym.None
			cur[slotsKey(r.slots)] = append([]sym.ID(nil), r.slots...)
			r.slots[n.V] = e
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
		copy(r.slots, common[k])
		if !emit() {
			return false
		}
	}
	return true
}

// slotsKey renders the bound slots as "var=entity;" in variable order.
func slotsKey(slots []sym.ID) string {
	buf := make([]byte, 0, 16*len(slots))
	for v, id := range slots {
		if id == sym.None {
			continue
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(id), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}
