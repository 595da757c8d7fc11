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
	// EstimateCount returns a planning figure for the number of facts
	// Match yields for the pattern, read from an index without
	// enumerating. exact reports that Match yields exactly n facts;
	// otherwise n only ranks patterns against each other (it may miss
	// inferred or virtual facts). The evaluator orders conjuncts by n
	// and takes an exact 0 as proof that the conjunction has no
	// answer.
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

// run is the state of one Eval: the join state its conjunctions
// share, and the evaluator whose counters it feeds.
type run struct {
	joiner
	ev *Evaluator
}

// Eval computes the value of q.
func (ev *Evaluator) Eval(q *Query) (*Result, error) {
	res := &Result{}
	for _, v := range q.Free {
		res.Vars = append(res.Vars, q.VarName(v))
	}
	r := &run{ev: ev, joiner: joiner{m: ev.M, slots: make([]sym.ID, q.MaxVar()+1)}}
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
		return r.match(n.Tpl, emit)
	case *And:
		return r.evalConj(n, emit)
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

// evalConj joins the atoms of the conjunction a (Join's planner orders
// them), then evaluates its other conjuncts, in written order, under
// each binding the atoms reach.
func (r *run) evalConj(a *And, emit func() bool) bool {
	atoms, rest := splitConj(a, make([]fact.Template, 0, 4), nil)
	if len(rest) == 0 {
		return r.join(atoms, emit)
	}
	return r.join(atoms, func() bool { return r.evalSeq(rest, emit) })
}

// evalSeq evaluates the conjuncts in order.
func (r *run) evalSeq(conj []Formula, emit func() bool) bool {
	if len(conj) == 0 {
		return emit()
	}
	return r.eval(conj[0], func() bool { return r.evalSeq(conj[1:], emit) })
}

// splitConj appends the templates of f's atom conjuncts to atoms and
// its other conjuncts to rest, in written order.
func splitConj(f Formula, atoms []fact.Template, rest []Formula) ([]fact.Template, []Formula) {
	switch n := f.(type) {
	case *And:
		atoms, rest = splitConj(n.L, atoms, rest)
		return splitConj(n.R, atoms, rest)
	case *Atom:
		return append(atoms, n.Tpl), rest
	default:
		return atoms, append(rest, f)
	}
}

// Join enumerates the extensions of slots that satisfy every template
// of conj, calling emit with each in slots; it stops early when emit
// returns false and reports completion. slots is indexed by variable
// (sym.None = unbound) and must cover every variable of conj; the
// variables it binds on entry act as constants. Query conjunctions and
// rule bodies are joined by this one planner: at each step it matches
// the template the Matcher estimates to match the fewest facts under
// the current binding, so a join re-ranks its atoms as bindings
// accrue. An exact-0 estimate ends the join at once: nothing can
// extend the binding. An inexact 0 with a free endpoint is usually a
// virtual guard (math, ≠) whose enumeration ranges over the whole
// domain, so it waits until other atoms have bound its variables; an
// inexact 0 with both endpoints bound is a cheap O(1) check and goes
// first. conj is reordered in place and restored before Join returns,
// and so are the slots.
func Join(m Matcher, conj []fact.Template, slots []sym.ID, emit func() bool) bool {
	j := &joiner{m: m, slots: slots}
	return j.join(conj, emit)
}

// joiner is the state of one Join. Bindings are a slot array: a
// matched fact binds slots in place and match undoes them when the
// continuation returns, so backtracking allocates nothing per fact.
type joiner struct {
	m             Matcher
	slots         []sym.ID
	enumerated    int    // facts the Matcher yielded
	shortcircuits uint64 // joins an exact-0 estimate ended
}

func (j *joiner) join(conj []fact.Template, emit func() bool) bool {
	if len(conj) == 0 {
		return emit()
	}
	best, bestScore := 0, -1<<30
	for i, tp := range conj {
		s, rel, t := j.resolve(tp)
		n, exact := j.m.EstimateCount(s, rel, t)
		if n == 0 && exact {
			j.shortcircuits++
			return true
		}
		// Negated cardinality: fewer matching facts is better.
		score := -n
		if n == 0 && (s == sym.None || t == sym.None) {
			score = -1 << 28
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if len(conj) == 1 {
		return j.match(conj[0], emit)
	}
	conj[0], conj[best] = conj[best], conj[0]
	done := j.match(conj[0], func() bool { return j.join(conj[1:], emit) })
	conj[0], conj[best] = conj[best], conj[0]
	return done
}

func (j *joiner) term(t fact.Term) sym.ID {
	if t.IsVar() {
		return j.slots[t.Variable]
	}
	return t.Entity
}

// resolve instantiates tp under the current binding; unbound
// variables become the sym.None wildcard.
func (j *joiner) resolve(tp fact.Template) (s, rel, t sym.ID) {
	return j.term(tp.S), j.term(tp.R), j.term(tp.T)
}

// unify binds the unbound variable of term to id, or checks id against
// what the term already denotes.
func (j *joiner) unify(term fact.Term, id sym.ID) bool {
	if have := j.term(term); have != sym.None {
		return have == id
	}
	j.slots[term.Variable] = id
	return true
}

// match calls emit once for each fact matching tp under the current
// binding, with the slots extended by what the fact binds.
func (j *joiner) match(tp fact.Template, emit func() bool) bool {
	s, rel, t := j.resolve(tp)
	return j.m.Match(s, rel, t, func(f fact.Fact) bool {
		j.enumerated++
		cont := !(j.unify(tp.S, f.S) && j.unify(tp.R, f.R) && j.unify(tp.T, f.T)) || emit()
		// Undo what the fact bound: the positions that were open on entry.
		if s == sym.None {
			j.slots[tp.S.Variable] = sym.None
		}
		if rel == sym.None {
			j.slots[tp.R.Variable] = sym.None
		}
		if t == sym.None {
			j.slots[tp.T.Variable] = sym.None
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
