package rules

import (
	"slices"
	"sync"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// derivation is a fact together with the rule that produced it and
// the premise facts the rule combined, used for provenance
// (Engine.Explain, Engine.Derivation).
type derivation struct {
	f        fact.Fact
	why      string
	premises []fact.Fact
}

// computeClosure materializes the closure of the base store under the
// active rules by frontier-based semi-naive forward chaining: each
// round joins every fact of the current frontier (the facts first
// obtained in the previous round) against everything derived so far,
// and the new facts form the next frontier, until a fixpoint.
// Termination is guaranteed because derived facts only combine
// entities already in the universe.
//
// Rounds are data-parallel: the frontier is partitioned into
// contiguous chunks, one worker per chunk, all joining against the
// same store — which no one mutates until the round's sequential
// merge. The merge concatenates chunk outputs in partition order, so
// the insertion order (and with it every first-wins provenance
// record and index bucket order) is identical for any worker count.
// The generation-0 frontier is sorted to pin down the one remaining
// source of nondeterminism, map iteration over the base fact set.
// Called with e.mu held.
func (e *Engine) computeClosure(cfg *ruleset) (*store.Store, map[fact.Fact]Provenance) {
	derived := e.base.Clone()
	prov := make(map[fact.Fact]Provenance)

	var next []fact.Fact
	push := func(d derivation) {
		if derived.Insert(d.f) {
			slices.SortFunc(d.premises, cmpFact)
			prov[d.f] = Provenance{Rule: d.why, Premises: d.premises}
			next = append(next, d.f)
		}
	}

	frontier := derived.Facts()
	slices.SortFunc(frontier, cmpFact)
	for _, ax := range e.axiomFacts() {
		push(ax)
	}
	frontier = append(frontier, next...)
	next = nil

	for len(frontier) > 0 {
		e.m.rounds.Inc()
		e.m.frontier.Observe(int64(len(frontier)))
		for _, d := range e.deriveRound(cfg, frontier, derived) {
			push(d)
		}
		frontier, next = next, frontier[:0]
	}
	return derived, prov
}

// parallelThreshold is the frontier size below which a round runs on
// the calling goroutine; smaller rounds lose more to goroutine
// startup than they gain from parallelism.
const parallelThreshold = 64

// deriveRound computes every one-step derivation from the frontier
// facts against derived, without mutating derived. Output order is
// deterministic: the concatenation of per-fact derivations in
// frontier order, regardless of how many workers ran.
func (e *Engine) deriveRound(cfg *ruleset, frontier []fact.Fact, derived *store.Store) []derivation {
	workers := e.buildWorkers(len(frontier) / parallelThreshold)
	e.m.buildWorkers.Max(int64(workers))
	if workers <= 1 {
		var out []derivation
		for _, f := range frontier {
			out = e.deriveFrom(cfg, f, derived, false, out)
		}
		return out
	}
	chunks := make([][]derivation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(frontier) * w / workers
		hi := len(frontier) * (w + 1) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []derivation
			for _, f := range frontier[lo:hi] {
				out = e.deriveFrom(cfg, f, derived, false, out)
			}
			chunks[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	var out []derivation
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// axiomFacts returns the built-in facts the paper postulates:
// ⇌ is its own inverse (§3.4), ⊥ is its own inverse so contradiction
// facts come in symmetric pairs (§3.5), and the mathematical
// comparators contradict each other pairwise (§3.5–3.6). The set
// depends only on the universe, so it is built once per engine —
// bounded evaluation iterates it once per subgoal, and rebuilding it
// there dominated the small-allocation profile. Callers must not
// mutate the shared slices.
func (e *Engine) axiomFacts() []derivation {
	e.axiomOnce.Do(e.buildAxioms)
	return e.axioms
}

// axiomFactList is axiomFacts without the derivation wrappers, for
// paths that only need the facts.
func (e *Engine) axiomFactList() []fact.Fact {
	e.axiomOnce.Do(e.buildAxioms)
	return e.axiomFs
}

func (e *Engine) buildAxioms() {
	u := e.u
	e.axiomFs = []fact.Fact{
		{S: u.Inv, R: u.Inv, T: u.Inv},
		{S: u.Contra, R: u.Inv, T: u.Contra},
		{S: u.Lt, R: u.Contra, T: u.Gt},
		{S: u.Gt, R: u.Contra, T: u.Lt},
		{S: u.Lt, R: u.Contra, T: u.Eq},
		{S: u.Eq, R: u.Contra, T: u.Lt},
		{S: u.Gt, R: u.Contra, T: u.Eq},
		{S: u.Eq, R: u.Contra, T: u.Gt},
		{S: u.Eq, R: u.Contra, T: u.Neq},
		{S: u.Neq, R: u.Contra, T: u.Eq},
		{S: u.Lt, R: u.Contra, T: u.Ge},
		{S: u.Ge, R: u.Contra, T: u.Lt},
		{S: u.Gt, R: u.Contra, T: u.Le},
		{S: u.Le, R: u.Contra, T: u.Gt},
	}
	e.axioms = make([]derivation, len(e.axiomFs))
	for i, f := range e.axiomFs {
		e.axioms[i] = derivation{f: f, why: "axiom"}
	}
}

// deriveFrom appends to out every fact derivable in one step by
// joining the fact f against the facts in derived, and returns the
// extended slice. It collects results rather than inserting so that
// no store is mutated while being iterated — which also makes it safe
// to run for many facts concurrently against the same store (cfg is
// immutable, derived is only read).
//
// Forward chaining passes all=false to skip conclusions already
// present. Delete propagation (delete.go) passes all=true: there the
// question is "which facts of the old closure have a one-step
// derivation using f", and at fixpoint every such conclusion is
// present — the filter would hide exactly the answers.
func (e *Engine) deriveFrom(cfg *ruleset, f fact.Fact, derived *store.Store, all bool, out []derivation) []derivation {
	emit := func(g fact.Fact, why string, premises ...fact.Fact) {
		if all || !derived.Has(g) {
			out = append(out, derivation{f: g, why: why, premises: premises})
		}
	}

	e.stdForward(e.std.forward, &cfg.std, f, derived, emit)

	// User rules: f may instantiate any body atom of any rule.
	for _, r := range cfg.userRules {
		e.applyUserRule(r, f, derived, func(g fact.Fact, premises []fact.Fact) {
			emit(g, r.Name, premises...)
		})
	}
	return out
}

type emitFunc func(g fact.Fact, why string, premises ...fact.Fact)

// stdForward is the forward interpreter of the rule table: it emits
// every head the enabled rows conclude in one step with f as a
// premise — f first as the data premise of every hop row, then as the
// link premise of every hop row and the premise of every unary row.
func (e *Engine) stdForward(rows []stdRow, on *[numStdRules]bool, f fact.Fact, derived *store.Store, emit emitFunc) {
	if e.virtualGen(f) {
		return
	}
	findiv := e.Individual(f.R) // a store lookup: once per trigger, not per row
	for _, asData := range [2]bool{true, false} {
		for i := range rows {
			row := &rows[i]
			switch {
			case !on[row.rule]:
			case asData:
				if row.hop() && row.takesData(f.R, findiv) {
					e.hopFromData(row, f, derived, emit)
				}
			case !row.hop():
				if f.R == row.data {
					e.unaryFrom(row, f, derived, emit)
				}
			case f.R == row.link && !row.oneWay:
				e.hopFromLink(row, f, derived, emit)
			}
		}
	}
}

// hopFromData emits the heads of hop row for data premise d and every
// link in derived that meets it.
func (e *Engine) hopFromData(row *stdRow, d fact.Fact, derived *store.Store, emit emitFunc) {
	lp := row.linkFact(at(d, row.at), sym.None)
	derived.Match(lp.S, lp.R, lp.T, func(l fact.Fact) bool {
		if e.virtualGen(l) {
			return true
		}
		_, far := row.linkEnds(l)
		if h, ok := row.conclude(with(d, row.at, far)); ok {
			emit(h, row.why(), d, l)
		}
		return true
	})
}

// hopFromLink emits the heads of hop row for link premise l and every
// data fact in derived that meets it.
func (e *Engine) hopFromLink(row *stdRow, l fact.Fact, derived *store.Store, emit emitFunc) {
	near, far := row.linkEnds(l)
	dp := with(fact.Fact{R: row.data}, row.at, near)
	derived.Match(dp.S, dp.R, dp.T, func(d fact.Fact) bool {
		if h, ok := row.conclude(with(d, row.at, far)); ok && e.isData(row, d) {
			emit(h, row.why(), l, d)
		}
		return true
	})
}

// unaryFrom emits the heads of unary row for premise p: one, or for a
// twin row whose other premise is present, one for each of the two
// premises p can be.
func (e *Engine) unaryFrom(row *stdRow, p fact.Fact, derived *store.Store, emit emitFunc) {
	if !row.twin {
		if h, ok := row.conclude(p); ok {
			emit(h, row.why(), p)
		}
		return
	}
	tw := swapST(p)
	if e.virtualGen(tw) || !derived.Has(tw) {
		return
	}
	for _, q := range [2]fact.Fact{p, tw} {
		if h, ok := row.conclude(q); ok {
			emit(h, row.why(), p, tw)
		}
	}
}

// applyUserRule finds every instantiation of rule r in which the new
// fact f matches at least one body atom, joining the remaining atoms
// against derived facts and virtual facts, and emits the instantiated
// head facts.
func (e *Engine) applyUserRule(r *Rule, f fact.Fact, derived *store.Store, emit func(fact.Fact, []fact.Fact)) {
	for i := range r.Body {
		b := getBinding()
		if !unifyTemplate(r.Body[i], f, b) {
			putBinding(b)
			continue
		}
		rest := make([]fact.Template, 0, len(r.Body)-1)
		rest = append(rest, r.Body[:i]...)
		rest = append(rest, r.Body[i+1:]...)
		e.joinAtoms(rest, b, derived, func(bb binding) {
			premises := make([]fact.Fact, 0, len(r.Body))
			for _, atom := range r.Body {
				if p, ok := instantiate(atom, bb); ok {
					premises = append(premises, p)
				}
			}
			for _, h := range r.Head {
				g, ok := instantiate(h, bb)
				if ok {
					emit(g, premises)
				}
			}
		})
		putBinding(b)
	}
}

// binding maps rule/query variables to entities.
type binding map[fact.Var]sym.ID

// bindingPool recycles root binding maps on the hot match paths: a
// single closure round can start thousands of unification attempts,
// and most die before binding anything.
var bindingPool = sync.Pool{New: func() any { return make(binding, 8) }}

func getBinding() binding { return bindingPool.Get().(binding) }

func putBinding(b binding) {
	clear(b)
	bindingPool.Put(b)
}

// unifyTemplate extends b so that template tp matches fact f,
// mutating b. It reports false (leaving b partially extended) when
// unification fails; callers pass a scratch binding.
func unifyTemplate(tp fact.Template, f fact.Fact, b binding) bool {
	return unifyTerm(tp.S, f.S, b) && unifyTerm(tp.R, f.R, b) && unifyTerm(tp.T, f.T, b)
}

// unifyInto extends b so that tp matches f, recording each newly
// bound variable in undo and returning how many were bound. The
// caller unwinds by deleting undo[:n] from b — on failure too, since
// a partial match may have bound a variable before mismatching. This
// replaces clone-per-candidate-fact on the join paths: one shared map
// is extended and unwound as the join backtracks.
func unifyInto(tp fact.Template, f fact.Fact, b binding, undo *[3]fact.Var) (int, bool) {
	n := 0
	bind := func(t fact.Term, id sym.ID) bool {
		if !t.IsVar() {
			return t.Entity == id
		}
		if have, ok := b[t.Variable]; ok {
			return have == id
		}
		b[t.Variable] = id
		undo[n] = t.Variable
		n++
		return true
	}
	ok := bind(tp.S, f.S) && bind(tp.R, f.R) && bind(tp.T, f.T)
	return n, ok
}

func unifyTerm(t fact.Term, id sym.ID, b binding) bool {
	if !t.IsVar() {
		return t.Entity == id
	}
	if have, ok := b[t.Variable]; ok {
		return have == id
	}
	b[t.Variable] = id
	return true
}

// resolve returns the pattern IDs of tp under binding b: bound
// variables and constants become concrete, unbound variables map to
// sym.None (wildcard).
func resolve(tp fact.Template, b binding) (s, r, t sym.ID) {
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

// instantiate grounds head template h under b.
func instantiate(h fact.Template, b binding) (fact.Fact, bool) {
	get := func(term fact.Term) (sym.ID, bool) {
		if !term.IsVar() {
			return term.Entity, true
		}
		id, ok := b[term.Variable]
		return id, ok
	}
	s, ok1 := get(h.S)
	r, ok2 := get(h.R)
	t, ok3 := get(h.T)
	if !ok1 || !ok2 || !ok3 {
		return fact.Fact{}, false
	}
	return fact.Fact{S: s, R: r, T: t}, true
}

// joinAtoms enumerates every extension of b satisfying all atoms
// against derived ∪ virtual facts via the batch join kernel
// (batchjoin.go): premises are re-ranked by store selectivity and,
// where eligible, answered for whole binding batches at once. atoms is
// permuted in place; callers pass a scratch slice. found must not
// retain its argument.
func (e *Engine) joinAtoms(atoms []fact.Template, b binding, derived *store.Store, found func(binding)) {
	var js joinStats
	seed := [1]binding{b}
	joinBatch(storeEval{e: e, derived: derived}, atoms, seed[:], &js, found)
	if js.batches != 0 {
		e.m.batchJoins.Add(js.batches)
		e.m.batchBindings.Add(js.batchBindings)
	}
}

// pickAtom returns the index of the atom to join next: the one whose
// pattern under b has the smallest index-bucket estimate in st, so
// joins enumerate the narrowest candidate set first and re-rank as
// bindings accrue. All estimates are taken in one batch (a single
// lock acquisition on an unsealed store). Mirroring the query
// evaluator's cost model: an estimate of 0 with an unbound endpoint
// usually marks a virtual pattern (comparators, ≠) acting as a guard
// — schedule it last, after its variables are bound; bound positions
// break ties. The choice never affects the set of join results, only
// the order and cost of finding them.
func pickAtom(atoms []fact.Template, b binding, st *store.Store) int {
	var patBuf [8]store.Pattern
	var cntBuf [8]int
	pats := patBuf[:0]
	if len(atoms) > len(patBuf) {
		pats = make([]store.Pattern, 0, len(atoms))
	}
	for _, a := range atoms {
		s, r, t := resolve(a, b)
		pats = append(pats, store.Pattern{S: s, R: r, T: t})
	}
	cnts := cntBuf[:len(pats)]
	if len(pats) > len(cntBuf) {
		cnts = make([]int, len(pats))
	}
	st.EstimateCounts(pats, cnts)

	const guard = -1 << 40 // below any real -8*count
	best, bestScore := 0, guard-1
	for i, p := range pats {
		bound := 0
		if p.S != sym.None {
			bound++
		}
		if p.R != sym.None {
			bound += 2
		}
		if p.T != sym.None {
			bound++
		}
		var score int
		if cnts[i] == 0 && (p.S == sym.None || p.T == sym.None) {
			score = guard + bound
		} else {
			score = -8*cnts[i] + bound
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
