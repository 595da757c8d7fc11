// Package check is the differential correctness harness: a table of
// oracles that assert pairwise equivalence of every answer path the
// engine offers — materialized closure, bounded on-demand inference,
// sequential vs parallel materialization, incremental layered
// maintenance vs full recompute, persistence round-trips, the
// layered store and its sealed and mutable clones vs a plain set, planned query evaluation
// vs conjuncts in written order — plus
// structural invariants of published closures and the crash,
// replication and scale sweeps. Each oracle is one row of Oracles: it
// takes a generated world (internal/gen) and returns nil or an error
// describing the first divergence found, which the driver reports as
// a Failure under the row's name.
//
// The oracles compare across *separate* Database instances, whose
// universes intern entities independently, so all cross-database
// comparisons canonicalize facts to name triples.
package check

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/sym"
)

// Failure describes one oracle divergence.
type Failure struct {
	Oracle string // which oracle fired
	Detail string // first divergence found
}

func (f *Failure) Error() string { return f.Oracle + ": " + f.Detail }

// Options tunes a run.
type Options struct {
	// Perturb, when non-nil, is applied to the second database of the
	// parallel-equivalence oracle before its closure is read. It
	// exists to verify the harness *detects* injected bugs (e.g.
	// excluding one inference rule on one side only).
	Perturb func(*lsdb.Database)
	// Points is a sweep's width: crash points per seed, replication
	// fault points per scenario, or the facts of a scale world. Zero
	// takes the sweep's default.
	Points int
}

// Cost says what one run of an oracle spends, which decides where it
// runs.
type Cost int

const (
	// World oracles replay the generated world a few times, in memory
	// or in temporary files. Run and every soak seed run them, and a
	// world one fails on shrinks.
	World Cost = iota
	// Sweep oracles replay a workload drawn from the world's seed once
	// per fault point (Options.Points). They run only when named, and a
	// failure names the seed and point to rerun instead of a world to
	// shrink.
	Sweep
)

// An Oracle is one row of the harness.
type Oracle struct {
	Name string
	Run  func(w *gen.World, o Options) error // nil, or the first divergence
	Cost Cost
}

// Oracles is the harness, in the order Run and lsdb-check run it.
// DESIGN.md §6 describes every row.
var Oracles = []Oracle{
	{"invariants", invariants, World},
	{"closure-vs-bounded", closureVsBounded, World},
	{"round-equals-depth", roundEqualsDepth, World},
	{"cached-vs-uncached", func(w *gen.World, _ Options) error { return cachedVsUncached(w, nil) }, World},
	{"parallel-equivalence", parallelEquivalence, World},
	{"incremental-vs-full", incrementalVsFull, World},
	{"sealed-vs-mutable", sealedVsMutable, World},
	{"layered-model", layeredModel, World},
	{"tx-rollback", txRollback, World},
	{"batch-vs-single", batchVsSingle, World},
	{"search-vs-scan", searchVsScan, World},
	{"search-incremental", func(w *gen.World, _ Options) error { _, err := searchIncremental(w); return err }, World},
	{"planned-vs-syntactic", func(w *gen.World, _ Options) error { return plannedVsSyntactic(w, nil) }, World},
	{"persistence", persistence, World},
	{"crash-recovery", crashSweep, Sweep},
	{"replication", replSweep, Sweep},
	{"scale", scaleSweep, Sweep},
}

// Check runs o against w and reports a divergence under o's name.
func (o Oracle) Check(w *gen.World, opts Options) *Failure {
	if err := o.Run(w, opts); err != nil {
		return &Failure{Oracle: o.Name, Detail: err.Error()}
	}
	return nil
}

// Shrink reduces w, on which the World oracle o failed, to a smaller
// world on which o alone still fails. A world o passes on a rerun comes
// back unchanged.
func (o Oracle) Shrink(w *gen.World, opts Options) *gen.World {
	fails := func(c *gen.World) bool { return o.Run(c, opts) != nil }
	if !fails(w) {
		return w
	}
	return gen.Shrink(w, fails)
}

// Select returns the rows named in a comma-separated list, or every
// World row when the list is empty.
func Select(names string) ([]Oracle, error) {
	var out []Oracle
	if names == "" {
		for _, o := range Oracles {
			if o.Cost == World {
				out = append(out, o)
			}
		}
		return out, nil
	}
	for _, name := range strings.Split(names, ",") {
		n := len(out)
		for _, o := range Oracles {
			if o.Name == name {
				out = append(out, o)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("no oracle %q", name)
		}
	}
	return out, nil
}

// Run runs every World oracle against the world in table order,
// returning the first failure or nil if all paths agree.
func Run(w *gen.World, opts Options) *Failure {
	oracles, _ := Select("")
	for _, o := range oracles {
		if f := o.Check(w, opts); f != nil {
			return f
		}
	}
	return nil
}

// row runs the one oracle called name.
func row(name string, w *gen.World, opts Options) *Failure {
	oracles, err := Select(name)
	if err != nil {
		panic(err)
	}
	return oracles[0].Check(w, opts)
}

// Invariants, ParallelEquivalence, IncrementalVsFull, SealedVsMutable,
// LayeredModel and SearchIncremental run one row each, for the tests of
// other packages that rerun them under their own settings.
func Invariants(w *gen.World) *Failure { return row("invariants", w, Options{}) }
func ParallelEquivalence(w *gen.World, opts Options) *Failure {
	return row("parallel-equivalence", w, opts)
}
func IncrementalVsFull(w *gen.World) *Failure { return row("incremental-vs-full", w, Options{}) }
func SealedVsMutable(w *gen.World) *Failure   { return row("sealed-vs-mutable", w, Options{}) }
func LayeredModel(w *gen.World) *Failure      { return row("layered-model", w, Options{}) }
func SearchIncremental(w *gen.World, opts Options) *Failure {
	return row("search-incremental", w, opts)
}

const (
	// maxDepth bounds the on-demand search depth ladder.
	maxDepth = 24
	// boundedLimit skips the oracles that enumerate bounded answers on
	// closures larger than this, since bounded enumeration is quadratic
	// in practice.
	boundedLimit = 4000
)

// triple canonicalizes a fact to its name form.
func triple(u *fact.Universe, f fact.Fact) [3]string {
	return [3]string{u.Name(f.S), u.Name(f.R), u.Name(f.T)}
}

func tripleSet(u *fact.Universe, st *store.Store) map[[3]string]bool {
	out := make(map[[3]string]bool, st.Len())
	for _, f := range st.Facts() {
		out[triple(u, f)] = true
	}
	return out
}

// diffSets returns one element of a\b or b\a, preferring a\b.
func diffSets(a, b map[[3]string]bool) (got [3]string, inA bool, ok bool) {
	for t := range a {
		if !b[t] {
			return t, true, true
		}
	}
	for t := range b {
		if !a[t] {
			return t, false, true
		}
	}
	return [3]string{}, false, false
}

// sameFacts returns nil when a and b hold the same facts, else an
// error naming one fact that only one side (sideA or sideB) holds.
func sameFacts(what, sideA, sideB string, a, b map[[3]string]bool) error {
	t, inA, ok := diffSets(a, b)
	if !ok {
		return nil
	}
	side := sideB
	if inA {
		side = sideA
	}
	return fmt.Errorf("%s %v only in %s (sizes %d vs %d)", what, t, side, len(a), len(b))
}

// sameClosure requires the closures of a and b to hold the same facts,
// each with the same derivation (derivedBy).
func sameClosure(a, b *lsdb.Database, sideA, sideB string) error {
	ua, ub := a.Universe(), b.Universe()
	ca, cb := a.Engine().Closure(), b.Engine().Closure()
	if err := sameFacts("fact", sideA+" closure", sideB+" closure", tripleSet(ua, ca), tripleSet(ub, cb)); err != nil {
		return err
	}
	for _, f := range ca.Facts() {
		tr := triple(ua, f)
		if da, db := derivedBy(a, f), derivedBy(b, ub.NewFact(tr[0], tr[1], tr[2])); da != db {
			return fmt.Errorf("provenance differs for %v: %s %q vs %s %q", tr, sideA, da, sideB, db)
		}
	}
	return nil
}

// invariants checks structural properties a published closure must
// have regardless of how it was computed: contradiction-freedom,
// agreement between every read of the stored facts and the fact set,
// non-empty provenance (Explain) and a materialized proof (Derive) for
// every closure fact, and a sorted ClosureEntities domain.
func invariants(w *gen.World, _ Options) error {
	db := w.Build()
	u := db.Universe()

	if contras := db.Check(); len(contras) != 0 {
		return fmt.Errorf("closure has %d contradictions; first: %s", len(contras), contras[0].Format(u))
	}

	// Every read of the stored facts, around the first 200 of them,
	// must agree with the fact set.
	facts := db.Store().Facts()
	model := factSet{}
	for _, f := range facts {
		model[f] = struct{}{}
	}
	if err := sameReads(u, db.Store(), model, facts[:min(len(facts), 200)]); err != nil {
		return fmt.Errorf("stored facts: %v", err)
	}

	// Every closure fact must explain and derive.
	eng := db.Engine()
	cfacts := eng.Closure().Facts()
	climit := len(cfacts)
	if climit > 500 {
		climit = 500
	}
	for _, f := range cfacts[:climit] {
		if eng.Explain(f) == "" {
			return fmt.Errorf("closure fact %s has empty provenance", u.FormatFact(f))
		}
		if eng.Derive(f) == nil {
			return fmt.Errorf("closure fact %s has no derivation", u.FormatFact(f))
		}
	}

	ents := eng.ClosureEntities()
	if !sort.SliceIsSorted(ents, func(i, j int) bool { return ents[i] < ents[j] }) {
		return errors.New("ClosureEntities not sorted")
	}
	return nil
}

// closureVsBounded walks the bounded on-demand search up the depth
// ladder and checks, at every depth: soundness (each bounded answer
// is in the closure or is a virtual fact) and monotonicity in depth.
// At the first depth d where the answer set stops growing the search
// is complete, and the materialized closure must be contained in it —
// the paper's backward and forward inference must agree exactly.
func closureVsBounded(w *gen.World, _ Options) error {
	db := w.Build()
	u := db.Universe()
	eng := db.Engine()
	closure := eng.Closure()
	if closure.Len() > boundedLimit {
		return nil // too big for quadratic bounded enumeration
	}

	vp := eng.Virtual()
	enumerate := func(depth int) map[fact.Fact]bool {
		set := make(map[fact.Fact]bool)
		eng.MatchBounded(0, 0, 0, depth, func(f fact.Fact) bool {
			set[f] = true
			return true
		})
		return set
	}

	prev := enumerate(0)
	for f := range prev {
		if !closure.Has(f) && !vp.Has(f) {
			return fmt.Errorf("depth 0 answer %s not stored, derived or virtual", u.FormatFact(f))
		}
	}
	for depth := 1; depth <= maxDepth; depth++ {
		cur := enumerate(depth)
		for f := range prev {
			if !cur[f] {
				return fmt.Errorf("bounded search not monotone: %s at depth %d but not %d",
					u.FormatFact(f), depth-1, depth)
			}
		}
		for f := range cur {
			if !closure.Has(f) && !vp.Has(f) {
				return fmt.Errorf("unsound at depth %d: %s not in closure and not virtual",
					depth, u.FormatFact(f))
			}
		}
		if len(cur) == len(prev) {
			// Fixpoint: the bounded search is complete here, so every
			// closure fact must be reachable backward.
			for _, f := range closure.Facts() {
				if !cur[f] {
					return fmt.Errorf("incomplete at fixpoint depth %d: closure fact %s unreachable",
						depth, u.FormatFact(f))
				}
			}
			return nil
		}
		prev = cur
	}
	// Never reaching a fixpoint within maxDepth on a generated world
	// is itself suspicious — the closure is finite and bounded search
	// is monotone, so it must saturate.
	return fmt.Errorf("no fixpoint within depth %d (last size %d, closure %d)",
		maxDepth, len(prev), closure.Len())
}

// roundEqualsDepth checks that a bounded depth is the round: every
// derived closure fact is found by HasBounded at its round and not one
// depth below it, the round being the semi-naive round Engine.Round
// finds. The two sides are independent implementations: Round deepens
// a search over the published closure, HasBounded tables subgoals over
// the stored facts. Virtual facts the closure also holds, such as the
// reflexive (c, ≺, c), are skipped: they hold at depth 0.
func roundEqualsDepth(w *gen.World, _ Options) error {
	db := w.Build()
	u := db.Universe()
	eng := db.Engine()
	closure := eng.Closure()
	if closure.Len() > boundedLimit {
		return nil // too big for quadratic bounded enumeration
	}
	vp := eng.Virtual()
	for _, f := range closure.Facts() {
		round := eng.Round(f)
		if round == 0 || vp.Has(f) || eng.HasBounded(f, round) && !eng.HasBounded(f, round-1) {
			continue
		}
		depth := 0
		for depth <= maxDepth && !eng.HasBounded(f, depth) {
			depth++
		}
		return fmt.Errorf("%s: round %d, least bounded depth %d", u.FormatFact(f), round, depth)
	}
	return nil
}

// boundedSet is db's bounded answer set for a name pattern ("" is the
// wildcard), canonicalized for cross-database comparison, and traced
// into tr when tr is not nil.
func boundedSet(db *lsdb.Database, s, r, t string, depth int, tr *obs.Trace) map[[3]string]bool {
	u := db.Universe()
	id := func(name string) sym.ID {
		if name == "" {
			return sym.None
		}
		return u.Entity(name)
	}
	set := make(map[[3]string]bool)
	db.Engine().MatchBoundedTrace(id(s), id(r), id(t), depth, tr, func(f fact.Fact) bool {
		set[triple(u, f)] = true
		return true
	})
	return set
}

// cachedVsUncached replays the world op by op onto two live databases
// — one with the cross-query subgoal cache enabled (the default), one
// with it disabled — and at sampled steps compares MatchBounded
// answer sets between them. Because asserts, retracts and rule
// toggles are interleaved with the probes, this is the oracle that
// turns stale-cache bugs (a missed invalidation on any mutation kind)
// into small shrinkable repros: the uncached side recomputes from
// scratch every time and is correct by construction of
// closureVsBounded. sink, when not nil, receives the cached engine's
// subgoal-cache counters at the end.
func cachedVsUncached(w *gen.World, sink func(rules.CacheStats)) error {
	cached, uncached := lsdb.New(), lsdb.New()
	uncached.Engine().SetSubgoalCache(false)
	if !cached.Engine().SubgoalCacheEnabled() {
		return errors.New("subgoal cache not enabled by default")
	}

	const depth = 3
	// Sample ~24 probe points; probing after every op would make the
	// uncached side quadratic in the program length.
	step := len(w.Ops)/24 + 1
	var lastFact gen.Op
	for i, op := range w.Ops {
		gen.ApplyOp(cached, op)
		gen.ApplyOp(uncached, op)
		if op.Kind == gen.OpAssert || op.Kind == gen.OpRetract {
			lastFact = op
		}
		if i%step != 0 || lastFact.S == "" {
			continue
		}
		// Probe patterns anchored on the most recently touched fact:
		// the names a stale cache entry is most likely to involve.
		probes := [][3]string{
			{lastFact.S, "", ""},
			{"", lastFact.R, ""},
			{"", "", lastFact.T},
			{lastFact.S, lastFact.R, lastFact.T},
		}
		for _, p := range probes {
			got := boundedSet(cached, p[0], p[1], p[2], depth, nil)
			want := boundedSet(uncached, p[0], p[1], p[2], depth, nil)
			if err := sameFacts("fact", "cached", "uncached", got, want); err != nil {
				return fmt.Errorf("after op %d (%s), pattern (%s,%s,%s) depth %d: %v", i, op, p[0], p[1], p[2], depth, err)
			}
		}
		// Trace reconciliation: the last probe is replayed with a trace
		// recorder on both sides; the spans must explain exactly the
		// counter movement they caused.
		p := probes[len(probes)-1]
		if err := traceReconcile(cached, uncached, p[0], p[1], p[2], depth); err != nil {
			return fmt.Errorf("trace vs counters: %v", err)
		}
		// HasBounded goes through the same cache with early exit.
		f := cached.Universe().NewFact(lastFact.S, lastFact.R, lastFact.T)
		f2 := uncached.Universe().NewFact(lastFact.S, lastFact.R, lastFact.T)
		if got, want := cached.Engine().HasBounded(f, depth+1), uncached.Engine().HasBounded(f2, depth+1); got != want {
			return fmt.Errorf("after op %d (%s): HasBounded(%s,%s,%s) = %v cached, %v uncached",
				i, op, lastFact.S, lastFact.R, lastFact.T, got, want)
		}
	}
	if sink != nil {
		sink(cached.Engine().CacheStats())
	}
	return nil
}

// countDispositions tallies span dispositions over a whole trace tree.
func countDispositions(evs []*obs.TraceEvent) map[string]int {
	out := make(map[string]int)
	var walk func([]*obs.TraceEvent)
	walk = func(list []*obs.TraceEvent) {
		for _, ev := range list {
			out[ev.Disposition]++
			walk(ev.Children)
		}
	}
	walk(evs)
	return out
}

// traceReconcile runs one traced MatchBounded probe on the cached and
// uncached databases and checks that the recorded dispositions mirror
// the subgoal-cache counters exactly: on the cached side the hit and
// miss span counts equal the CacheStats deltas the call produced and
// no span claims "computed"; on the uncached side every computation is
// a "computed" span and the (frozen) counters do not move. It also
// re-checks that tracing never changes the answer set.
func traceReconcile(cached, uncached *lsdb.Database, s, r, t string, depth int) error {
	run := func(db *lsdb.Database) (map[[3]string]bool, map[string]int, int, rules.CacheStats, rules.CacheStats) {
		before := db.Engine().CacheStats()
		tr := obs.NewTrace()
		set := boundedSet(db, s, r, t, depth, tr)
		return set, countDispositions(tr.Done()), tr.Dropped(), before, db.Engine().CacheStats()
	}

	// Spans past the trace's event cap are dropped but still counted, so
	// on an overflowing trace the span counts are only a lower bound.
	cSet, cDisp, cDropped, cBefore, cAfter := run(cached)
	exact := cDropped == 0
	if got, want := cDisp[obs.DispHit], int(cAfter.Hits-cBefore.Hits); got != want && (exact || got > want) {
		return fmt.Errorf("pattern (%s,%s,%s): %d hit spans but hits counter moved by %d (%d spans dropped)",
			s, r, t, got, want, cDropped)
	}
	if got, want := cDisp[obs.DispMiss], int(cAfter.Misses-cBefore.Misses); got != want && (exact || got > want) {
		return fmt.Errorf("pattern (%s,%s,%s): %d miss spans but misses counter moved by %d (%d spans dropped)",
			s, r, t, got, want, cDropped)
	}
	if n := cDisp[obs.DispComputed]; n != 0 {
		return fmt.Errorf("pattern (%s,%s,%s): %d computed spans with the cache enabled", s, r, t, n)
	}

	uSet, uDisp, _, uBefore, uAfter := run(uncached)
	if n := uDisp[obs.DispHit] + uDisp[obs.DispMiss]; n != 0 {
		return fmt.Errorf("pattern (%s,%s,%s): %d hit/miss spans with the cache disabled", s, r, t, n)
	}
	if uAfter.Hits != uBefore.Hits || uAfter.Misses != uBefore.Misses {
		return fmt.Errorf("pattern (%s,%s,%s): disabled cache counters moved (%+v -> %+v)", s, r, t, uBefore, uAfter)
	}

	// Tracing is an observer: both traced answer sets must still agree.
	if err := sameFacts("fact", "cached", "uncached", cSet, uSet); err != nil {
		return fmt.Errorf("traced pattern (%s,%s,%s) depth %d: %v", s, r, t, depth, err)
	}
	return nil
}

// parallelWorkers is the worker count parallelEquivalence compares
// against the sequential build.
const parallelWorkers = 8

// parallelEquivalence builds the world twice, materializes one closure
// sequentially and one with parallelWorkers workers, and requires
// identical fact sets and identical per-fact provenance: the rule and
// the premises of each fact's canonical derivation (the first level of
// Derive). opts.Perturb, if set, is applied to the parallel database
// first.
func parallelEquivalence(w *gen.World, opts Options) error {
	db1, db2 := w.Build(), w.Build()
	if opts.Perturb != nil {
		opts.Perturb(db2)
	}
	db1.Engine().SetWorkers(1)
	db2.Engine().SetWorkers(parallelWorkers)
	return sameClosure(db1, db2, "sequential", "parallel")
}

// derivedBy renders the first level of f's proof tree in db: its rule
// and its premises, by name.
func derivedBy(db *lsdb.Database, f fact.Fact) string {
	d := db.Engine().Derive(f)
	s := d.Rule
	for _, p := range d.Premises {
		s += fmt.Sprint(" ", triple(db.Universe(), p.Fact))
	}
	return s
}

// incrementalVsFull replays the world onto a live database while
// forcing a closure materialization every other op — driving the COW
// incremental path on insert runs and full recomputes after deletes
// and rule toggles — and compares the final closure against a fresh
// replay that computes its closure once, from scratch: the same facts,
// and for each the same derivation (rule and premises, derivedBy).
func incrementalVsFull(w *gen.World, _ Options) error {
	live := lsdb.New()
	for i, op := range w.Ops {
		gen.ApplyOp(live, op)
		if i%2 == 1 {
			live.ClosureLen()
		}
	}
	return sameClosure(live, w.Build(), "incremental", "full-recompute")
}

// txRollback applies a deterministic mutation workload inside a
// transaction that aborts, and requires the stored fact set and the
// closure to come back identical to the pre-transaction state.
func txRollback(w *gen.World, _ Options) error {
	db := w.Build()
	u := db.Universe()
	storedBefore := tripleSet(u, db.Store())
	closureBefore := tripleSet(u, db.Engine().Closure())

	sentinel := errors.New("abort")
	err := db.Batch(func(tx *lsdb.Tx) error {
		i := 0
		for _, op := range w.Ops {
			if op.Kind != gen.OpAssert {
				continue
			}
			// Alternate retracting world facts and asserting fresh ones.
			if i%2 == 0 {
				tx.Retract(op.S, op.R, op.T)
			} else {
				tx.Assert(fmt.Sprintf("TX%d", i), op.R, op.T)
			}
			i++
		}
		tx.Assert("TX-ONLY", "isa", "TX-PARENT")
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		return fmt.Errorf("Batch returned %v, want sentinel", err)
	}

	if err := sameFacts("stored fact", "the store before", "the store after rollback", storedBefore, tripleSet(u, db.Store())); err != nil {
		return err
	}
	return sameFacts("closure fact", "the closure before", "the closure after rollback", closureBefore, tripleSet(u, db.Engine().Closure()))
}

// persistence checks both durability paths against the live store: a
// snapshot written and reloaded into a fresh database must hold the
// same stored facts, and a database whose mutations went through an
// append-only log must come back identical (stored facts and closure)
// when reopened from that log.
func persistence(w *gen.World, _ Options) error {
	dir, err := os.MkdirTemp("", "lsdb-check-*")
	if err != nil {
		return fmt.Errorf("mktemp: %v", err)
	}
	defer os.RemoveAll(dir)

	// Snapshot round-trip.
	db := w.Build()
	snap := filepath.Join(dir, fmt.Sprintf("w%d.snap", w.Seed))
	if err := db.SaveSnapshot(snap); err != nil {
		return fmt.Errorf("save snapshot: %v", err)
	}
	loaded := lsdb.New()
	if err := loaded.LoadSnapshot(snap); err != nil {
		return fmt.Errorf("load snapshot: %v", err)
	}
	if err := sameFacts("stored fact", "the live store", "the reloaded snapshot",
		tripleSet(db.Universe(), db.Store()), tripleSet(loaded.Universe(), loaded.Store())); err != nil {
		return err
	}

	// Log round-trip: replay the world through an attached log, then
	// reopen from the log alone.
	logPath := filepath.Join(dir, fmt.Sprintf("w%d.log", w.Seed))
	logged, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		return fmt.Errorf("open with log: %v", err)
	}
	w.Apply(logged)
	loggedStored := tripleSet(logged.Universe(), logged.Store())
	loggedClosure := logged.Engine().Closure().Len()
	if err := logged.Close(); err != nil {
		return fmt.Errorf("close log: %v", err)
	}
	reopened, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		return fmt.Errorf("reopen from log: %v", err)
	}
	defer reopened.Close()
	// Rule toggles are not logged (they are session configuration),
	// so reapply them before comparing closures.
	for _, op := range w.Ops {
		switch op.Kind {
		case gen.OpExclude:
			_ = reopened.ExcludeRule(op.Rule)
		case gen.OpInclude:
			_ = reopened.IncludeRule(op.Rule)
		}
	}
	if err := sameFacts("stored fact", "the live store", "the log replay",
		loggedStored, tripleSet(reopened.Universe(), reopened.Store())); err != nil {
		return err
	}
	if n := reopened.Engine().Closure().Len(); n != loggedClosure {
		return fmt.Errorf("closure after log replay has %d facts, live had %d", n, loggedClosure)
	}
	return nil
}

// Describe renders a failure with its shrunk repro program, the thing
// lsdb-check prints and a developer replays.
func Describe(f *Failure, repro *gen.World) string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle failure: %s\n", f.Error())
	fmt.Fprintf(&b, "repro program (replay with gen.World{Ops: ...}.Build()):\n")
	b.WriteString(repro.Program())
	return b.String()
}
