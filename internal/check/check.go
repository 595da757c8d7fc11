// Package check is the differential correctness harness: a set of
// oracles that assert pairwise equivalence of every answer path the
// engine offers — materialized closure, bounded on-demand inference,
// sequential vs parallel materialization, incremental layered
// maintenance vs full recompute, persistence round-trips, sealed
// clones, the layered store vs a plain set, planned query evaluation
// vs conjuncts in written order — plus
// structural invariants of published closures. Each oracle takes a
// generated world (internal/gen) and returns nil or a Failure naming
// the oracle and the first divergence found.
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

// Options tunes a Run.
type Options struct {
	// Workers is the parallel worker count compared against the
	// sequential build (default 8).
	Workers int
	// Perturb, when non-nil, is applied to the second database of the
	// parallel-equivalence oracle before its closure is read. It
	// exists to verify the harness *detects* injected bugs (e.g.
	// excluding one inference rule on one side only).
	Perturb func(*lsdb.Database)
	// SkipPersistence disables the snapshot/log round-trip oracle
	// (useful for tight shrinking loops that would otherwise thrash
	// the filesystem).
	SkipPersistence bool
	// CacheStatsSink, when non-nil, receives the cached engine's
	// subgoal-cache counters after the cached-vs-uncached oracle
	// finishes (lsdb-check -v aggregates them across seeds).
	CacheStatsSink func(rules.CacheStats)
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 8
	}
	return o
}

const (
	// maxDepth bounds the on-demand search depth ladder.
	maxDepth = 24
	// boundedLimit skips the oracles that enumerate bounded answers on
	// closures larger than this, since bounded enumeration is quadratic
	// in practice.
	boundedLimit = 4000
)

// Run replays the world and runs every oracle against it, returning
// the first failure or nil if all paths agree.
func Run(w *gen.World, opts Options) *Failure {
	opts = opts.withDefaults()
	if f := Invariants(w); f != nil {
		return f
	}
	if f := ClosureVsBounded(w); f != nil {
		return f
	}
	if f := RoundEqualsDepth(w); f != nil {
		return f
	}
	if f := CachedVsUncached(w, opts); f != nil {
		return f
	}
	if f := ParallelEquivalence(w, opts); f != nil {
		return f
	}
	if f := IncrementalVsFull(w); f != nil {
		return f
	}
	if f := SealedCloneVsOriginal(w); f != nil {
		return f
	}
	if f := SealedVsMutable(w); f != nil {
		return f
	}
	if f := LayeredModel(w); f != nil {
		return f
	}
	if f := TxRollback(w); f != nil {
		return f
	}
	if f := BatchVsSingle(w, opts); f != nil {
		return f
	}
	if f := SearchVsScan(w, opts); f != nil {
		return f
	}
	if f := SearchIncremental(w, opts); f != nil {
		return f
	}
	if f := PlannedVsSyntactic(w); f != nil {
		return f
	}
	if !opts.SkipPersistence {
		if f := PersistenceRoundTrip(w); f != nil {
			return f
		}
	}
	return nil
}

// triple canonicalizes a fact of db to its name form.
func triple(db *lsdb.Database, f fact.Fact) [3]string {
	u := db.Universe()
	return [3]string{u.Name(f.S), u.Name(f.R), u.Name(f.T)}
}

func tripleSet(db *lsdb.Database, st *store.Store) map[[3]string]bool {
	out := make(map[[3]string]bool, st.Len())
	for _, f := range st.Facts() {
		out[triple(db, f)] = true
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

// Invariants checks structural properties a published closure must
// have regardless of how it was computed: contradiction-freedom,
// agreement between the six store indexes and the fact set, non-empty
// provenance (Explain) and a materialized proof (Derive) for every
// closure fact, and a sorted ClosureEntities domain.
func Invariants(w *gen.World) *Failure {
	db := w.Build()
	u := db.Universe()
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "invariants", Detail: fmt.Sprintf(format, args...)}
	}

	if contras := db.Check(); len(contras) != 0 {
		return fail("closure has %d contradictions; first: %s", len(contras), contras[0].Format(u))
	}

	// Every stored fact must be reachable through all seven template
	// shapes of the store's index structure.
	base := db.Store()
	facts := base.Facts()
	limit := len(facts)
	if limit > 200 {
		limit = 200
	}
	for _, f := range facts[:limit] {
		patterns := [][3]bool{
			{true, true, true}, {true, true, false}, {true, false, true},
			{false, true, true}, {true, false, false}, {false, true, false},
			{false, false, true},
		}
		for _, p := range patterns {
			s, r, t := f.S, f.R, f.T
			if !p[0] {
				s = 0
			}
			if !p[1] {
				r = 0
			}
			if !p[2] {
				t = 0
			}
			found := false
			base.Match(s, r, t, func(g fact.Fact) bool {
				if g == f {
					found = true
					return false
				}
				return true
			})
			if !found {
				return fail("index miss: %s not found via template (%v,%v,%v)",
					u.FormatFact(f), s, r, t)
			}
		}
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
			return fail("closure fact %s has empty provenance", u.FormatFact(f))
		}
		if eng.Derive(f) == nil {
			return fail("closure fact %s has no derivation", u.FormatFact(f))
		}
	}

	ents := eng.ClosureEntities()
	if !sort.SliceIsSorted(ents, func(i, j int) bool { return ents[i] < ents[j] }) {
		return fail("ClosureEntities not sorted")
	}
	return nil
}

// ClosureVsBounded walks the bounded on-demand search up the depth
// ladder and checks, at every depth: soundness (each bounded answer
// is in the closure or is a virtual fact) and monotonicity in depth.
// At the first depth d where the answer set stops growing the search
// is complete, and the materialized closure must be contained in it —
// the paper's backward and forward inference must agree exactly.
func ClosureVsBounded(w *gen.World) *Failure {
	db := w.Build()
	u := db.Universe()
	eng := db.Engine()
	closure := eng.Closure()
	if closure.Len() > boundedLimit {
		return nil // too big for quadratic bounded enumeration
	}
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "closure-vs-bounded", Detail: fmt.Sprintf(format, args...)}
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
			return fail("depth 0 answer %s not stored, derived or virtual", u.FormatFact(f))
		}
	}
	for depth := 1; depth <= maxDepth; depth++ {
		cur := enumerate(depth)
		for f := range prev {
			if !cur[f] {
				return fail("bounded search not monotone: %s at depth %d but not %d",
					u.FormatFact(f), depth-1, depth)
			}
		}
		for f := range cur {
			if !closure.Has(f) && !vp.Has(f) {
				return fail("unsound at depth %d: %s not in closure and not virtual",
					depth, u.FormatFact(f))
			}
		}
		if len(cur) == len(prev) {
			// Fixpoint: the bounded search is complete here, so every
			// closure fact must be reachable backward.
			for _, f := range closure.Facts() {
				if !cur[f] {
					return fail("incomplete at fixpoint depth %d: closure fact %s unreachable",
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
	return fail("no fixpoint within depth %d (last size %d, closure %d)",
		maxDepth, len(prev), closure.Len())
}

// RoundEqualsDepth checks that a bounded depth is the round: every
// derived closure fact is found by HasBounded at its round and not one
// depth below it, the round being the semi-naive round Engine.Round
// finds. The two sides are independent implementations: Round deepens
// a search over the published closure, HasBounded tables subgoals over
// the stored facts. Virtual facts the closure also holds, such as the
// reflexive (c, ≺, c), are skipped: they hold at depth 0.
func RoundEqualsDepth(w *gen.World) *Failure {
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
		return &Failure{Oracle: "round-equals-depth",
			Detail: fmt.Sprintf("%s: round %d, least bounded depth %d", u.FormatFact(f), round, depth)}
	}
	return nil
}

// CachedVsUncached replays the world op by op onto two live databases
// — one with the cross-query subgoal cache enabled (the default), one
// with it disabled — and at sampled steps compares MatchBounded
// answer sets between them. Because asserts, retracts and rule
// toggles are interleaved with the probes, this is the oracle that
// turns stale-cache bugs (a missed invalidation on any mutation kind)
// into small shrinkable repros: the uncached side recomputes from
// scratch every time and is correct by construction of
// ClosureVsBounded.
func CachedVsUncached(w *gen.World, opts Options) *Failure {
	opts = opts.withDefaults()
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "cached-vs-uncached", Detail: fmt.Sprintf(format, args...)}
	}

	cached, uncached := lsdb.New(), lsdb.New()
	uncached.Engine().SetSubgoalCache(false)
	if !cached.Engine().SubgoalCacheEnabled() {
		return fail("subgoal cache not enabled by default")
	}

	// Bounded answer set for a name pattern ("" = wildcard),
	// canonicalized for cross-database comparison.
	boundedSet := func(db *lsdb.Database, s, r, t string, depth int) map[[3]string]bool {
		u := db.Universe()
		id := func(name string) sym.ID {
			if name == "" {
				return sym.None
			}
			return u.Entity(name)
		}
		set := make(map[[3]string]bool)
		db.Engine().MatchBounded(id(s), id(r), id(t), depth, func(f fact.Fact) bool {
			set[triple(db, f)] = true
			return true
		})
		return set
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
			got := boundedSet(cached, p[0], p[1], p[2], depth)
			want := boundedSet(uncached, p[0], p[1], p[2], depth)
			if tr, inCached, ok := diffSets(got, want); ok {
				side := "uncached"
				if inCached {
					side = "cached"
				}
				return fail("after op %d (%s), pattern (%s,%s,%s) depth %d: fact %v only in %s answer (sizes %d vs %d)",
					i, op, p[0], p[1], p[2], depth, tr, side, len(got), len(want))
			}
		}
		// Trace reconciliation: the last probe is replayed with a trace
		// recorder on both sides; the spans must explain exactly the
		// counter movement they caused.
		p := probes[len(probes)-1]
		if f := traceReconcile(cached, uncached, p[0], p[1], p[2], depth); f != nil {
			return f
		}
		// HasBounded goes through the same cache with early exit.
		u := cached.Universe()
		f := fact.Fact{S: u.Entity(lastFact.S), R: u.Entity(lastFact.R), T: u.Entity(lastFact.T)}
		u2 := uncached.Universe()
		f2 := fact.Fact{S: u2.Entity(lastFact.S), R: u2.Entity(lastFact.R), T: u2.Entity(lastFact.T)}
		if got, want := cached.Engine().HasBounded(f, depth+1), uncached.Engine().HasBounded(f2, depth+1); got != want {
			return fail("after op %d (%s): HasBounded(%s,%s,%s) = %v cached, %v uncached",
				i, op, lastFact.S, lastFact.R, lastFact.T, got, want)
		}
	}
	if sink := opts.CacheStatsSink; sink != nil {
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
func traceReconcile(cached, uncached *lsdb.Database, s, r, t string, depth int) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "trace-vs-counters", Detail: fmt.Sprintf(format, args...)}
	}
	run := func(db *lsdb.Database) (map[[3]string]bool, map[string]int, int, rules.CacheStats, rules.CacheStats) {
		u := db.Universe()
		id := func(name string) sym.ID {
			if name == "" {
				return sym.None
			}
			return u.Entity(name)
		}
		before := db.Engine().CacheStats()
		tr := obs.NewTrace()
		set := make(map[[3]string]bool)
		db.Engine().MatchBoundedTrace(id(s), id(r), id(t), depth, tr, func(f fact.Fact) bool {
			set[triple(db, f)] = true
			return true
		})
		return set, countDispositions(tr.Done()), tr.Dropped(), before, db.Engine().CacheStats()
	}

	// Spans past the trace's event cap are dropped but still counted, so
	// on an overflowing trace the span counts are only a lower bound.
	cSet, cDisp, cDropped, cBefore, cAfter := run(cached)
	exact := cDropped == 0
	if got, want := cDisp[obs.DispHit], int(cAfter.Hits-cBefore.Hits); got != want && (exact || got > want) {
		return fail("pattern (%s,%s,%s): %d hit spans but hits counter moved by %d (%d spans dropped)",
			s, r, t, got, want, cDropped)
	}
	if got, want := cDisp[obs.DispMiss], int(cAfter.Misses-cBefore.Misses); got != want && (exact || got > want) {
		return fail("pattern (%s,%s,%s): %d miss spans but misses counter moved by %d (%d spans dropped)",
			s, r, t, got, want, cDropped)
	}
	if n := cDisp[obs.DispComputed]; n != 0 {
		return fail("pattern (%s,%s,%s): %d computed spans with the cache enabled", s, r, t, n)
	}

	uSet, uDisp, _, uBefore, uAfter := run(uncached)
	if n := uDisp[obs.DispHit] + uDisp[obs.DispMiss]; n != 0 {
		return fail("pattern (%s,%s,%s): %d hit/miss spans with the cache disabled", s, r, t, n)
	}
	if uAfter.Hits != uBefore.Hits || uAfter.Misses != uBefore.Misses {
		return fail("pattern (%s,%s,%s): disabled cache counters moved (%+v -> %+v)", s, r, t, uBefore, uAfter)
	}

	// Tracing is an observer: both traced answer sets must still agree.
	if tr3, inCached, ok := diffSets(cSet, uSet); ok {
		side := "uncached"
		if inCached {
			side = "cached"
		}
		return fail("traced pattern (%s,%s,%s) depth %d: fact %v only in %s answer", s, r, t, depth, tr3, side)
	}
	return nil
}

// ParallelEquivalence builds the world twice, materializes one
// closure sequentially and one with opts.Workers workers, and
// requires identical fact sets and identical per-fact provenance: the
// rule and the premises of each fact's canonical derivation (the
// first level of Derive). opts.Perturb, if set, is applied to the parallel
// database first.
func ParallelEquivalence(w *gen.World, opts Options) *Failure {
	opts = opts.withDefaults()
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "parallel-equivalence", Detail: fmt.Sprintf(format, args...)}
	}
	db1, db2 := w.Build(), w.Build()
	if opts.Perturb != nil {
		opts.Perturb(db2)
	}
	db1.Engine().SetWorkers(1)
	db2.Engine().SetWorkers(opts.Workers)
	c1, c2 := db1.Engine().Closure(), db2.Engine().Closure()
	s1, s2 := tripleSet(db1, c1), tripleSet(db2, c2)
	if t, inA, ok := diffSets(s1, s2); ok {
		if inA {
			return fail("fact %v in sequential closure only (sizes %d vs %d)", t, len(s1), len(s2))
		}
		return fail("fact %v in parallel closure only (sizes %d vs %d)", t, len(s1), len(s2))
	}
	u2 := db2.Universe()
	for _, f := range c1.Facts() {
		tr := triple(db1, f)
		f2 := fact.Fact{S: u2.Entity(tr[0]), R: u2.Entity(tr[1]), T: u2.Entity(tr[2])}
		if w1, w2 := derivedBy(db1, f), derivedBy(db2, f2); w1 != w2 {
			return fail("provenance differs for %v: sequential %q vs parallel %q", tr, w1, w2)
		}
	}
	return nil
}

// derivedBy renders the first level of f's proof tree in db: its rule
// and its premises, by name.
func derivedBy(db *lsdb.Database, f fact.Fact) string {
	d := db.Engine().Derive(f)
	s := d.Rule
	for _, p := range d.Premises {
		s += fmt.Sprint(" ", triple(db, p.Fact))
	}
	return s
}

// IncrementalVsFull replays the world onto a live database while
// forcing a closure materialization every other op — driving the COW
// incremental path on insert runs and full recomputes after deletes
// and rule toggles — and compares the final closure against a fresh
// replay that computes its closure once, from scratch: the same facts,
// and for each the same derivation (rule and premises, derivedBy).
func IncrementalVsFull(w *gen.World) *Failure {
	live := lsdb.New()
	for i, op := range w.Ops {
		gen.ApplyOp(live, op)
		if i%2 == 1 {
			live.ClosureLen()
		}
	}
	full := w.Build()
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "incremental-vs-full", Detail: fmt.Sprintf(format, args...)}
	}
	liveSet := tripleSet(live, live.Engine().Closure())
	fullSet := tripleSet(full, full.Engine().Closure())
	if t, inLive, ok := diffSets(liveSet, fullSet); ok {
		side := "full-recompute"
		if inLive {
			side = "incremental"
		}
		return fail("fact %v only in %s closure (sizes %d vs %d)", t, side, len(liveSet), len(fullSet))
	}
	uf := full.Universe()
	for _, f := range live.Engine().Closure().Facts() {
		tr := triple(live, f)
		ff := fact.Fact{S: uf.Entity(tr[0]), R: uf.Entity(tr[1]), T: uf.Entity(tr[2])}
		if w1, w2 := derivedBy(live, f), derivedBy(full, ff); w1 != w2 {
			return fail("provenance differs for %v: incremental %q vs full-recompute %q", tr, w1, w2)
		}
	}
	return nil
}

// SealedCloneVsOriginal checks that a store clone holds exactly the
// original's facts, that Count and EstimateCount agree on plain
// stores, and that mutating the clone leaves the original untouched.
func SealedCloneVsOriginal(w *gen.World) *Failure {
	db := w.Build()
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "sealed-clone", Detail: fmt.Sprintf(format, args...)}
	}
	orig := db.Store()
	clone := orig.Clone()
	if clone.Len() != orig.Len() {
		return fail("clone size %d != original %d", clone.Len(), orig.Len())
	}
	for _, f := range orig.Facts() {
		if !clone.Has(f) {
			return fail("clone missing %s", db.Universe().FormatFact(f))
		}
		if c, e := orig.Count(0, f.R, 0), orig.EstimateCount(0, f.R, 0); c != e {
			return fail("EstimateCount %d != Count %d for rel %s",
				e, c, db.Universe().Name(f.R))
		}
	}
	// Clone isolation: a marker insert must not leak back.
	marker := db.Universe().NewFact("CLONE-MARKER", "CLONE-REL", "CLONE-TGT")
	clone.Insert(marker)
	if orig.Has(marker) {
		return fail("insert into clone visible in original")
	}
	before := orig.Len()
	if clone.Len() != before+1 {
		return fail("clone insert did not stick")
	}
	return nil
}

// TxRollback applies a deterministic mutation workload inside a
// transaction that aborts, and requires the stored fact set and the
// closure to come back identical to the pre-transaction state.
func TxRollback(w *gen.World) *Failure {
	db := w.Build()
	storedBefore := tripleSet(db, db.Store())
	closureBefore := tripleSet(db, db.Engine().Closure())

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
		return &Failure{Oracle: "tx-rollback", Detail: fmt.Sprintf("Batch returned %v, want sentinel", err)}
	}

	storedAfter := tripleSet(db, db.Store())
	closureAfter := tripleSet(db, db.Engine().Closure())
	if t, inBefore, ok := diffSets(storedBefore, storedAfter); ok {
		verb := "appeared in"
		if inBefore {
			verb = "vanished from"
		}
		return &Failure{Oracle: "tx-rollback",
			Detail: fmt.Sprintf("stored fact %v %s store after rollback", t, verb)}
	}
	if t, inBefore, ok := diffSets(closureBefore, closureAfter); ok {
		verb := "appeared in"
		if inBefore {
			verb = "vanished from"
		}
		return &Failure{Oracle: "tx-rollback",
			Detail: fmt.Sprintf("closure fact %v %s closure after rollback", t, verb)}
	}
	return nil
}

// PersistenceRoundTrip checks both durability paths against the live
// store: a snapshot written and reloaded into a fresh database must
// hold the same stored facts, and a database whose mutations went
// through an append-only log must come back identical (stored facts
// and closure) when reopened from that log.
func PersistenceRoundTrip(w *gen.World) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "persistence", Detail: fmt.Sprintf(format, args...)}
	}
	dir, err := os.MkdirTemp("", "lsdb-check-*")
	if err != nil {
		return fail("mktemp: %v", err)
	}
	defer os.RemoveAll(dir)

	// Snapshot round-trip.
	db := w.Build()
	snap := filepath.Join(dir, fmt.Sprintf("w%d.snap", w.Seed))
	if err := db.SaveSnapshot(snap); err != nil {
		return fail("save snapshot: %v", err)
	}
	loaded := lsdb.New()
	if err := loaded.LoadSnapshot(snap); err != nil {
		return fail("load snapshot: %v", err)
	}
	want, got := tripleSet(db, db.Store()), tripleSet(loaded, loaded.Store())
	if t, inWant, ok := diffSets(want, got); ok {
		if inWant {
			return fail("snapshot lost stored fact %v", t)
		}
		return fail("snapshot invented stored fact %v", t)
	}

	// Log round-trip: replay the world through an attached log, then
	// reopen from the log alone.
	logPath := filepath.Join(dir, fmt.Sprintf("w%d.log", w.Seed))
	logged, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		return fail("open with log: %v", err)
	}
	w.Apply(logged)
	loggedStored := tripleSet(logged, logged.Store())
	loggedClosure := len(tripleSet(logged, logged.Engine().Closure()))
	if err := logged.Close(); err != nil {
		return fail("close log: %v", err)
	}
	reopened, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		return fail("reopen from log: %v", err)
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
	reStored := tripleSet(reopened, reopened.Store())
	if t, inWant, ok := diffSets(loggedStored, reStored); ok {
		if inWant {
			return fail("log replay lost stored fact %v", t)
		}
		return fail("log replay invented stored fact %v", t)
	}
	if n := len(tripleSet(reopened, reopened.Engine().Closure())); n != loggedClosure {
		return fail("closure after log replay has %d facts, live had %d", n, loggedClosure)
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
