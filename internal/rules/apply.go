package rules

import (
	"cmp"
	"slices"
	"sync"
	"time"

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
// Everything derived so far is a sealed generation: generation 0 is
// the base facts and the axioms, sorted once; each round reads the
// current generation lock-free and folds its new facts into the next
// one with one linear merge (store.SealedWith). The last generation is
// the closure, already sealed and folded. A round may fold because
// the fold is cheap next to the round: the posting build is a few
// counting-sort passes, and the round that produced the facts did a
// join per fact.
//
// Rounds are data-parallel: the frontier is partitioned into
// contiguous chunks, one worker per chunk, all reading the same
// generation. The sequential merge keeps the first emission of each
// new fact in the concatenation of chunk outputs in partition order,
// so every first-wins provenance record and the next frontier's order
// are identical for any worker count. The generation-0 frontier is
// the sorted base, so map iteration over the base fact set cannot
// leak into the order either. It returns the closure, its provenance,
// the number of facts each rule put into it ("stored" for the base,
// "axiom" for the axioms), and the time spent building generations.
// Called with e.mu held.
func (e *Engine) computeClosure(cfg *ruleset) (*store.Store, map[fact.Fact]Provenance, map[string]int, time.Duration) {
	prov := make(map[fact.Fact]Provenance)
	frontier := e.base.Facts()
	slices.SortFunc(frontier, fact.Compare)
	byRule := map[string]int{"stored": len(frontier)}
	stored := len(frontier)
	rk := make(ranks)
	for _, ax := range e.axiomFacts() {
		if _, dup := rk[ax.f]; dup {
			continue
		}
		if _, found := slices.BinarySearchFunc(frontier[:stored], ax.f, fact.Compare); !found {
			prov[ax.f] = Provenance{Rule: ax.why}
			byRule[ax.why]++
			rk[ax.f] = uint32(len(rk))
			frontier = append(frontier, ax.f)
		}
	}
	t0 := time.Now()
	gen := store.SealedFromFacts(e.u, slices.Clone(frontier))
	folding := time.Since(t0)

	for len(frontier) > 0 {
		e.m.rounds.Inc()
		e.m.frontier.Observe(int64(len(frontier)))
		out := e.deriveRound(cfg, frontier, gen, rk)
		// Every emission is absent from gen (deriveFrom filters those),
		// so one already ranked was emitted earlier in this round.
		frontier = frontier[:0]
		for _, d := range out {
			if _, dup := rk[d.f]; dup {
				continue
			}
			rk[d.f] = uint32(len(rk))
			slices.SortFunc(d.premises, fact.Compare)
			prov[d.f] = Provenance{Rule: d.why, Premises: d.premises}
			byRule[d.why]++
			frontier = append(frontier, d.f)
		}
		if len(frontier) > 0 {
			fresh := slices.Clone(frontier)
			slices.SortFunc(fresh, fact.Compare)
			t0 = time.Now()
			gen = gen.SealedWith(fresh)
			folding += time.Since(t0)
		}
	}
	return gen, prov, byRule, folding
}

// ranks orders a full build's reads. A build reads a sealed
// generation, whose buckets hand out facts in (S, R, T) order; the
// rules must see them in the order a store that takes facts one at a
// time hands them out instead — the base facts, then every other fact
// in the order it entered the closure — because that order decides
// the order of the next frontier and, through it, which derivation of
// a fact comes first. ranks holds that entry order for every fact not
// in the base. It is written only between rounds, so a round's
// workers read it freely. The maintenance paths read a layered clone
// of the published closure in its own order, as they always have, and
// pass nil.
type ranks map[fact.Fact]uint32

// ranked is a fact read from a generation, with its entry order.
type ranked struct {
	f    fact.Fact
	rank uint32
}

var rankedPool = sync.Pool{New: func() any { s := make([]ranked, 0, 64); return &s }}

// match is st.Match in entry order: base facts stream straight
// through, in (S, R, T) order, and the others follow sorted by rank.
func (rk ranks) match(st *store.Store, s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	if rk == nil {
		return st.Match(s, r, t, fn)
	}
	bp := rankedPool.Get().(*[]ranked)
	later := (*bp)[:0]
	defer func() {
		if cap(later) <= maxRetainedCap {
			*bp = later[:0]
			rankedPool.Put(bp)
		}
	}()
	if !st.Match(s, r, t, func(f fact.Fact) bool {
		if n, ok := rk[f]; ok {
			later = append(later, ranked{f, n})
			return true
		}
		return fn(f)
	}) {
		return false
	}
	slices.SortFunc(later, func(a, b ranked) int { return cmp.Compare(a.rank, b.rank) })
	for _, x := range later {
		if !fn(x.f) {
			return false
		}
	}
	return true
}

// parallelThreshold is the frontier size below which a round runs on
// the calling goroutine; smaller rounds lose more to goroutine
// startup than they gain from parallelism.
const parallelThreshold = 64

// deriveRound computes every one-step derivation from the frontier
// facts against derived, without mutating derived. Output order is
// deterministic: the concatenation of per-fact derivations in
// frontier order, regardless of how many workers ran.
func (e *Engine) deriveRound(cfg *ruleset, frontier []fact.Fact, derived *store.Store, rk ranks) []derivation {
	workers := e.buildWorkers(len(frontier) / parallelThreshold)
	e.m.buildWorkers.Max(int64(workers))
	if workers <= 1 {
		var out []derivation
		for _, f := range frontier {
			out = e.deriveFrom(cfg, f, derived, rk, false, out)
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
				out = e.deriveFrom(cfg, f, derived, rk, false, out)
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
func (e *Engine) deriveFrom(cfg *ruleset, f fact.Fact, derived *store.Store, rk ranks, all bool, out []derivation) []derivation {
	emit := func(g fact.Fact, why string, premises ...fact.Fact) {
		if all || !derived.Has(g) {
			out = append(out, derivation{f: g, why: why, premises: premises})
		}
	}

	e.stdForward(e.std.forward, &cfg.std, f, derived, rk, emit)

	// User rules: f may instantiate any body atom of any rule.
	for _, r := range cfg.userRules {
		e.applyUserRule(r, f, derived, rk, func(g fact.Fact, premises []fact.Fact) {
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
func (e *Engine) stdForward(rows []stdRow, on *[numStdRules]bool, f fact.Fact, derived *store.Store, rk ranks, emit emitFunc) {
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
					e.hopFromData(row, f, derived, rk, emit)
				}
			case !row.hop():
				if f.R == row.data {
					e.unaryFrom(row, f, derived, emit)
				}
			case f.R == row.link && !row.oneWay:
				e.hopFromLink(row, f, derived, rk, emit)
			}
		}
	}
}

// hopFromData emits the heads of hop row for data premise d and every
// link in derived that meets it.
func (e *Engine) hopFromData(row *stdRow, d fact.Fact, derived *store.Store, rk ranks, emit emitFunc) {
	lp := row.linkFact(at(d, row.at), sym.None)
	rk.match(derived, lp.S, lp.R, lp.T, func(l fact.Fact) bool {
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
func (e *Engine) hopFromLink(row *stdRow, l fact.Fact, derived *store.Store, rk ranks, emit emitFunc) {
	near, far := row.linkEnds(l)
	dp := with(fact.Fact{R: row.data}, row.at, near)
	rk.match(derived, dp.S, dp.R, dp.T, func(d fact.Fact) bool {
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
func (e *Engine) applyUserRule(r *Rule, f fact.Fact, derived *store.Store, rk ranks, emit func(fact.Fact, []fact.Fact)) {
	for i := range r.Body {
		b := getBinding()
		if !unifyTemplate(r.Body[i], f, b) {
			putBinding(b)
			continue
		}
		rest := make([]fact.Template, 0, len(r.Body)-1)
		rest = append(rest, r.Body[:i]...)
		rest = append(rest, r.Body[i+1:]...)
		e.joinAtoms(rest, b, derived, rk, func(bb binding) {
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
func (e *Engine) joinAtoms(atoms []fact.Template, b binding, derived *store.Store, rk ranks, found func(binding)) {
	var js joinStats
	seed := [1]binding{b}
	joinBatch(storeEval{e: e, derived: derived, rk: rk}, atoms, seed[:], &js, found)
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
