package rules

import (
	"cmp"
	"slices"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// Batch-oriented join evaluation.
//
// joinBatch generalizes the one-binding-at-a-time backtracking join:
// each premise atom is evaluated against a *batch* of candidate
// bindings at once. When the atom's relation is a constant,
// non-special entity, the whole batch is answered by ONE enumeration
// of the atom's generic pattern (variables as wildcards) — a single
// index probe or memoized subgoal instead of len(batch) of them — and
// the candidates are aligned against the bindings by sorting both
// sides on the join column and walking them with the galloping kernels
// from internal/store. Atoms that don't qualify (variable or special
// relations, tiny batches, huge generic fanout) fall back to the exact
// per-binding evaluation the depth-first join performed.
//
// Why the generic enumeration is sound: for a constant non-special
// relation the virtual provider contributes nothing (virtual facts
// exist only for Gen and the comparison relations), and every backward
// rule propagates exactly the constrained positions of its goal — so
// enum(pattern, d) equals {facts derivable within d} filtered by
// pattern. Evaluating the generic pattern and filtering per binding
// via unifyInto therefore yields exactly the per-binding results.

// Planner thresholds. Variables rather than constants so the
// differential test can force the batch path always-on and always-off
// and prove both produce identical results.
var (
	// minBatchBindings: below this, per-binding probes are cheaper
	// than sorting the batch and materializing the generic pattern.
	minBatchBindings = 4
	// maxBatchFanout caps the generic pattern's estimated result size;
	// beyond it the one-big-enumeration trade is likely to lose.
	maxBatchFanout = 1 << 14
)

// batchSegment bounds how many extended bindings accumulate before
// being pushed through the remaining atoms, keeping peak memory
// proportional to join depth, not result size.
const batchSegment = 4096

// joinStats accumulates join-planner counters locally; callers flush
// them to engine metrics once per query to avoid atomic traffic in the
// join inner loop.
type joinStats struct {
	reordered     uint64 // premise reorders chosen by pickAtom
	batches       uint64 // atom×batch evaluations answered generically
	batchBindings uint64 // bindings covered by those batch evaluations
}

// joinEval abstracts the two fact sources joins run against: the
// bounded on-demand evaluator (depth-limited backward chaining) and
// the forward-chaining closure delta (store + virtual provider).
type joinEval interface {
	// eval streams every fact matching the pattern; fn must not
	// retain its argument.
	eval(s, r, t sym.ID, fn func(fact.Fact))
	// planStore returns the store whose EstimateCount drives premise
	// ordering and batch-eligibility decisions.
	planStore() *store.Store
}

type boundedEval struct {
	b *bounded
	d int
}

func (j boundedEval) eval(s, r, t sym.ID, fn func(fact.Fact)) {
	for _, f := range j.b.enum(s, r, t, j.d) {
		fn(f)
	}
}

func (j boundedEval) planStore() *store.Store { return j.b.base }

type storeEval struct {
	e       *Engine
	derived *store.Store
}

func (j storeEval) eval(s, r, t sym.ID, fn func(fact.Fact)) {
	wrap := func(f fact.Fact) bool { fn(f); return true }
	j.derived.Match(s, r, t, wrap)
	j.e.vp.Match(s, r, t, j.derived, wrap)
}

func (j storeEval) planStore() *store.Store { return j.derived }

// joinBatch extends every binding in batch through atoms, calling
// found once per complete solution. atoms may be permuted in place
// (selectivity ordering) and batch may be reordered. The bindings in
// batch are borrowed from the caller and restored before return;
// found must not retain its argument.
func joinBatch(ev joinEval, atoms []fact.Template, batch []binding, st *joinStats, found func(binding)) {
	if len(batch) == 0 {
		return
	}
	if len(atoms) == 0 {
		for _, b := range batch {
			found(b)
		}
		return
	}
	if len(atoms) > 1 {
		// All bindings in a batch bind the same variable set, so the
		// plan chosen for the first is valid for all of them.
		if best := pickAtom(atoms, batch[0], ev.planStore()); best != 0 {
			st.reordered++
			atoms[0], atoms[best] = atoms[best], atoms[0]
		}
	}
	atom := atoms[0]

	nextp := batchPool.Get().(*[]binding)
	next := *nextp
	flush := func() {
		joinBatch(ev, atoms[1:], next, st, found)
		for _, nb := range next {
			putBinding(nb)
		}
		next = next[:0]
	}
	// emit snapshots the (temporarily extended) binding into the next
	// batch; segments are flushed eagerly so memory stays bounded.
	emit := func(bind binding) {
		c := getBinding()
		for k, v := range bind {
			c[k] = v
		}
		next = append(next, c)
		if len(next) >= batchSegment {
			flush()
		}
	}

	if col, ok := batchCol(atom, batch[0], ev.planStore(), len(batch)); ok {
		st.batches++
		st.batchBindings += uint64(len(batch))
		joinBatchAtom(ev, atom, col, batch, emit)
	} else {
		for _, bind := range batch {
			s, r, t := resolve(atom, bind)
			ev.eval(s, r, t, func(f fact.Fact) {
				var undo [3]fact.Var
				n, ok := unifyInto(atom, f, bind, &undo)
				if ok {
					emit(bind)
				}
				for i := 0; i < n; i++ {
					delete(bind, undo[i])
				}
			})
		}
	}
	flush()
	*nextp = next
	batchPool.Put(nextp)
}

// batchCol decides whether atom can be answered for the whole batch by
// one generic enumeration and, if so, which position is the join
// column: 0 = S, 2 = T, or -1 for broadcast (the atom shares no bound
// variable with the batch, so every binding sees the same candidates).
func batchCol(atom fact.Template, b0 binding, st *store.Store, batchLen int) (int, bool) {
	if batchLen < minBatchBindings {
		return 0, false
	}
	if atom.R.IsVar() {
		return 0, false // relation varies per binding
	}
	if st.Universe().Special(atom.R.Entity) {
		return 0, false // virtual/std-rule relations need exact patterns
	}
	gs, gr, gt := genericPattern(atom)
	if st.EstimateCount(gs, gr, gt) > maxBatchFanout {
		return 0, false
	}
	if atom.S.IsVar() {
		if _, bound := b0[atom.S.Variable]; bound {
			return 0, true
		}
	}
	if atom.T.IsVar() {
		if _, bound := b0[atom.T.Variable]; bound {
			return 2, true
		}
	}
	return -1, true
}

// genericPattern widens atom to the batch-independent pattern: every
// variable position becomes a wildcard, constants stay.
func genericPattern(atom fact.Template) (s, r, t sym.ID) {
	g := func(term fact.Term) sym.ID {
		if term.IsVar() {
			return sym.None
		}
		return term.Entity
	}
	return g(atom.S), g(atom.R), g(atom.T)
}

// joinBatchAtom answers atom for the whole batch from one generic
// enumeration. Candidates are collected into a pooled buffer and
// sorted on the join column; the batch is sorted by its bound value
// for that column; then a single forward sweep gallops to each value's
// candidate run. unifyInto still validates every position per
// candidate, so the column alignment is purely an accelerator — it
// cannot admit a wrong fact.
func joinBatchAtom(ev joinEval, atom fact.Template, col int, batch []binding, emit func(binding)) {
	gs, gr, gt := genericPattern(atom)
	candp := getFactBuf()
	cands := *candp
	defer func() {
		*candp = cands[:0]
		putFactBuf(candp)
	}()
	ev.eval(gs, gr, gt, func(f fact.Fact) { cands = append(cands, f) })
	if len(cands) == 0 {
		return
	}

	if col < 0 { // broadcast: no join column
		for _, bind := range batch {
			for _, f := range cands {
				var undo [3]fact.Var
				n, ok := unifyInto(atom, f, bind, &undo)
				if ok {
					emit(bind)
				}
				for i := 0; i < n; i++ {
					delete(bind, undo[i])
				}
			}
		}
		return
	}

	colOf := func(f fact.Fact) sym.ID {
		if col == 0 {
			return f.S
		}
		return f.T
	}
	key := atom.S.Variable
	if col == 2 {
		key = atom.T.Variable
	}

	slices.SortFunc(cands, func(a, b fact.Fact) int {
		if c := cmp.Compare(colOf(a), colOf(b)); c != 0 {
			return c
		}
		return fact.Compare(a, b) // deterministic order within a value run
	})
	valp := getIDBuf()
	vals := *valp
	for _, f := range cands {
		vals = append(vals, colOf(f))
	}
	slices.SortFunc(batch, func(a, b binding) int { return cmp.Compare(a[key], b[key]) })

	cur := 0 // monotone cursor: batch values are ascending
	for bi := 0; bi < len(batch); {
		v := batch[bi][key]
		bj := bi + 1
		for bj < len(batch) && batch[bj][key] == v {
			bj++
		}
		lo := store.GallopGE(vals, v, cur)
		hi := store.GallopGT(vals, v, lo)
		cur = hi
		for ; bi < bj; bi++ {
			bind := batch[bi]
			for k := lo; k < hi; k++ {
				var undo [3]fact.Var
				n, ok := unifyInto(atom, cands[k], bind, &undo)
				if ok {
					emit(bind)
				}
				for i := 0; i < n; i++ {
					delete(bind, undo[i])
				}
			}
		}
	}
	*valp = vals[:0]
	putIDBuf(valp)
}
