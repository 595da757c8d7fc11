package rules

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/fact"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sym"
)

// derivation is a fact together with the rule that produced it. A
// closure build keeps the least rule of each new fact (cmpRule) for
// the per-rule fact counts; Explain and Derive find a fact's premises
// on demand (explain.go).
type derivation struct {
	f    fact.Fact
	rule uint32 // the StdRule, or userRule for every user rule
	why  string
}

// userRule is derivation.rule for a user rule: user rules order after
// every standard rule, and among themselves by name.
const userRule = uint32(numStdRules)

// cmpRule orders the rules of derivations canonically: the standard
// rules in StdRule order, then user rules by name.
func cmpRule(a, b *derivation) int {
	if c := cmp.Compare(a.rule, b.rule); c != 0 {
		return c
	}
	if a.rule == userRule {
		return strings.Compare(a.why, b.why)
	}
	return 0
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
// Rounds are order-free. A round's derive step partitions the frontier
// into contiguous chunks, one worker per chunk, all reading the same
// generation; its dedupe step shards the emissions by fact hash, one
// worker per shard, and keeps each new fact once, counted under its
// least rule (cmpRule). The derivations a round emits depend only on
// the generation and the frontier as sets, so the counts, like the
// closure, are a function of the database whatever the worker count or
// the order facts are read and emitted in. Each shard hands back its
// new facts sorted; their merge is the next frontier. It returns the
// closure, the number of facts each rule put into it ("stored" for the
// base, "axiom" for the axioms), and the time spent building
// generations. Called with e.mu held.
func (e *Engine) computeClosure(cfg *ruleset) (*store.Store, map[string]int, time.Duration) {
	frontier := e.base.Facts()
	slices.SortFunc(frontier, fact.Compare)
	byRule := map[string]int{"stored": len(frontier)}
	stored := len(frontier)
	for _, ax := range e.axiomFacts() {
		if _, found := slices.BinarySearchFunc(frontier[:stored], ax, fact.Compare); !found {
			frontier = append(frontier, ax)
		}
	}
	byRule["axiom"] = len(frontier) - stored
	t0 := time.Now()
	gen := store.SealedFromFacts(e.u, slices.Clone(frontier))
	folding := time.Since(t0)

	for len(frontier) > 0 {
		e.m.rounds.Inc()
		e.m.frontier.Observe(int64(len(frontier)))
		shards := e.deriveRound(cfg, frontier, gen, byRule)
		frontier = mergeRuns(shards, frontier[:0])
		if len(frontier) > 0 {
			t0 = time.Now()
			gen = gen.SealedWith(frontier)
			folding += time.Since(t0)
		}
	}
	return gen, byRule, folding
}

// mergeRuns appends to out every fact of runs, each sorted and all
// pairwise disjoint, in fact order: a k-way merge over a min-heap of
// the runs' heads.
func mergeRuns(runs [][]fact.Fact, out []fact.Fact) []fact.Fact {
	h := make([][]fact.Fact, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, r)
		}
	}
	less := func(i, j int) bool { return fact.Compare(h[i][0], h[j][0]) < 0 }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(c+1, c) {
				c++
			}
			if !less(c, i) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// parallelThreshold is the frontier size below which a round runs on
// the calling goroutine; smaller rounds lose more to goroutine
// startup than they gain from parallelism.
const parallelThreshold = 64

// deriveRound computes every one-step derivation from the frontier
// facts against derived, without mutating derived, and reduces them
// to the new facts, one run sorted by fact per dedupe shard. Each new
// fact counts in byRule under its least rule (cmpRule).
func (e *Engine) deriveRound(cfg *ruleset, frontier []fact.Fact, derived *store.Store, byRule map[string]int) [][]fact.Fact {
	workers := e.buildWorkers(len(frontier) / parallelThreshold)
	e.m.buildWorkers.Max(int64(workers))
	outs := make([][]derivation, workers)
	fanOut(workers, func(w int) {
		var out []derivation
		for _, f := range frontier[len(frontier)*w/workers : len(frontier)*(w+1)/workers] {
			out = e.deriveFrom(cfg, f, derived, false, out)
		}
		outs[w] = out
	})
	shards := make([][]fact.Fact, workers)
	counts := make([]map[string]int, workers)
	fanOut(workers, func(s int) {
		counts[s] = make(map[string]int)
		shards[s] = dedupe(outs, s, workers, counts[s])
	})
	for _, c := range counts {
		for why, n := range c {
			byRule[why] += n
		}
	}
	return shards
}

// fanOut runs fn(0) … fn(n-1) on n goroutines and waits for them;
// fn(0) alone runs on the calling goroutine.
func fanOut(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// dedupe returns, sorted, the facts in outs that fall to shard s of n
// by their hash, and counts each in byRule under its least rule
// (cmpRule). It sorts 16-byte keys, not the derivations, and compares
// derivations only within a fact.
func dedupe(outs [][]derivation, s, n int, byRule map[string]int) []fact.Fact {
	type key struct {
		sr   uint64 // S, R: with t, fact.Compare's order
		t, i uint32 // i indexes outs as if concatenated
	}
	total := 0
	for _, out := range outs {
		total += len(out)
	}
	keys := make([]key, 0, total/n+total/(8*n)+16) // hashing spreads facts evenly
	off := make([]uint32, len(outs))
	i := uint32(0)
	for w, out := range outs {
		off[w] = i
		for _, d := range out {
			if shardOf(d.f, n) == s {
				keys = append(keys, key{uint64(d.f.S)<<32 | uint64(d.f.R), uint32(d.f.T), i})
			}
			i++
		}
	}
	at := func(i uint32) *derivation {
		w := len(off) - 1
		for off[w] > i {
			w--
		}
		return &outs[w][i-off[w]]
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.sr != b.sr {
			return cmp.Compare(a.sr, b.sr)
		}
		return cmp.Compare(a.t, b.t)
	})
	facts := 0
	for j := range keys {
		if j == 0 || keys[j].sr != keys[j-1].sr || keys[j].t != keys[j-1].t {
			facts++
		}
	}
	out := make([]fact.Fact, 0, facts)
	for j := 0; j < len(keys); {
		best := at(keys[j].i)
		k := j + 1
		for ; k < len(keys) && keys[k].sr == keys[j].sr && keys[k].t == keys[j].t; k++ {
			if d := at(keys[k].i); cmpRule(d, best) < 0 {
				best = d
			}
		}
		out = append(out, best.f)
		byRule[best.why]++
		j = k
	}
	return out
}

// shardOf assigns fact f to one of n dedupe shards by a hash of it.
func shardOf(f fact.Fact, n int) int {
	h := uint64(f.S)*0x9e3779b97f4a7c15 ^ uint64(f.R)*0xc2b2ae3d27d4eb4f ^ uint64(f.T)*0x165667b19e3779f9
	return int((h >> 32) % uint64(n))
}

// axiomFacts returns the built-in facts the paper postulates:
// ⇌ is its own inverse (§3.4), ⊥ is its own inverse so contradiction
// facts come in symmetric pairs (§3.5), and the mathematical
// comparators contradict each other pairwise (§3.5–3.6). The set
// depends only on the universe, so it is built once per engine —
// bounded evaluation iterates it once per subgoal, and rebuilding it
// there dominated the small-allocation profile. Callers must not
// mutate the shared slice.
func (e *Engine) axiomFacts() []fact.Fact {
	e.axiomOnce.Do(e.buildAxioms)
	return e.axioms
}

func (e *Engine) buildAxioms() {
	u := e.u
	e.axioms = []fact.Fact{
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
	e.stdForward(e.std, &cfg.std, f, derived, func(g fact.Fact, rule StdRule, _, _ fact.Fact) {
		if all || !derived.Has(g) {
			out = append(out, derivation{f: g, rule: uint32(rule), why: stdRuleNames[rule]})
		}
	})

	// User rules: f may instantiate any body atom of any rule.
	for _, r := range cfg.userRules {
		e.applyUserRule(r, f, derived, func(g fact.Fact, _ []sym.ID) {
			if all || !derived.Has(g) {
				out = append(out, derivation{f: g, rule: userRule, why: r.Name})
			}
		})
	}
	return out
}

// emitFunc receives one standard derivation from the forward
// interpreter: the head, the rule, and the premises by value — b is the
// zero Fact for a row with one premise.
type emitFunc func(g fact.Fact, rule StdRule, a, b fact.Fact)

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
			case f.R == row.link:
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
			emit(h, row.rule, d, l)
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
			emit(h, row.rule, d, l)
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
			emit(h, row.rule, p, fact.Fact{})
		}
		return
	}
	tw := swapST(p)
	if e.virtualGen(tw) || !derived.Has(tw) {
		return
	}
	for _, q := range [2]fact.Fact{p, tw} {
		if h, ok := row.conclude(q); ok {
			emit(h, row.rule, p, tw)
		}
	}
}

// applyUserRule finds every instantiation of rule r in which the new
// fact f matches at least one body atom, joining the remaining atoms
// against derived facts and virtual facts, and emits each instantiated
// head fact with the slot bindings that ground the body (r.premises).
func (e *Engine) applyUserRule(r *Rule, f fact.Fact, derived *store.Store, emit func(fact.Fact, []sym.ID)) {
	var slots []sym.ID
	var rest []fact.Template
	for i, tp := range r.Body {
		if !r.bindSlots(&slots, tp, f.S, f.R, f.T) {
			continue
		}
		rest = append(append(rest[:0], r.Body[:i]...), r.Body[i+1:]...)
		query.Join(storeEval{e: e, derived: derived}, rest, slots, func() bool {
			for _, h := range r.Head {
				emit(ground(h, slots), slots)
			}
			return true
		})
	}
}

// storeEval is the Matcher user-rule bodies join against forwards and
// from the head: the derived store plus the virtual facts. Its
// estimate is the store's count, exact unless the relationship may
// have a virtual family.
type storeEval struct {
	e       *Engine
	derived *store.Store
}

func (m storeEval) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	return m.derived.Match(s, r, t, fn) && m.e.vp.Match(s, r, t, m.derived, fn)
}

func (m storeEval) EstimateCount(s, r, t sym.ID) (int, bool) {
	return m.derived.EstimateCount(s, r, t), !m.e.virtualRel(r)
}

// bindSlots binds the variables of template tp in *slots so that tp
// matches the pattern (s, rel, t), whose sym.None positions constrain
// nothing, and leaves every other variable unbound. *slots is r's slot
// array for query.Join, allocated on first use and cleared after. It
// reports false when tp cannot match; it checks tp's constants first,
// which rule most templates out before any slot array is allocated.
func (r *Rule) bindSlots(slots *[]sym.ID, tp fact.Template, s, rel, t sym.ID) bool {
	fits := func(term fact.Term, id sym.ID) bool {
		return id == sym.None || term.IsVar() || term.Entity == id
	}
	if !fits(tp.S, s) || !fits(tp.R, rel) || !fits(tp.T, t) {
		return false
	}
	if *slots == nil {
		var hi fact.Var
		for _, tps := range [2][]fact.Template{r.Body, r.Head} {
			for _, tp := range tps {
				hi = max(hi, tp.S.Variable, tp.R.Variable, tp.T.Variable)
			}
		}
		*slots = make([]sym.ID, hi+1)
	} else {
		clear(*slots)
	}
	bind := func(term fact.Term, id sym.ID) bool {
		switch v := term.Variable; {
		case id == sym.None || !term.IsVar():
			return true
		case (*slots)[v] == sym.None:
			(*slots)[v] = id
			return true
		default:
			return (*slots)[v] == id // a repeated variable
		}
	}
	return bind(tp.S, s) && bind(tp.R, rel) && bind(tp.T, t)
}

// ground instantiates tp under slots, which bind all its variables.
func ground(tp fact.Template, slots []sym.ID) fact.Fact {
	term := func(t fact.Term) sym.ID {
		if t.IsVar() {
			return slots[t.Variable]
		}
		return t.Entity
	}
	return fact.Fact{S: term(tp.S), R: term(tp.R), T: term(tp.T)}
}

// premises grounds r's body under slots, in body order.
func (r *Rule) premises(slots []sym.ID) []fact.Fact {
	out := make([]fact.Fact, len(r.Body))
	for i, tp := range r.Body {
		out[i] = ground(tp, slots)
	}
	return out
}
