package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// layerInputs is what a world offers the per-layer measurements: the
// entities, queries and trails its workload's script touches.
type layerInputs struct {
	hub, leaf string
	entities  []string
	queries   []string
	probes    []string // failing queries that need retraction; may be empty
	keywords  []string
	pairs     [][2]string
	trails    []trail
}

// campusInputs takes the inputs from the browse script, so the layers
// are timed on what the sessions actually ask.
func campusInputs(w *world, script []session) layerInputs {
	in := layerInputs{hub: w.Hub, leaf: w.Students[len(w.Students)-1]}
	seen := make(map[string]bool)
	for _, s := range script {
		for _, o := range s.Ops {
			switch o.Kind {
			case "navigate", "try":
				if !seen[o.Arg] {
					seen[o.Arg] = true
					in.entities = append(in.entities, o.Arg)
				}
			case "query":
				in.queries = append(in.queries, o.Arg)
			case "probe":
				in.probes = append(in.probes, o.Arg)
			case "search":
				in.keywords = append(in.keywords, o.Arg)
			}
		}
	}
	for i := 0; i < 20; i++ {
		in.pairs = append(in.pairs, [2]string{w.Students[i%len(w.Students)], w.Students[(i+1)%len(w.Students)]})
	}
	// On a campus world one depth-2 on-demand match costs about 0.4 s
	// and fills the subgoal table, so its "trails" are single entities;
	// the workloads on this world never take the on-demand path, and
	// the figures are there as their no-change control.
	in.trails = []trail{{w.Students[0]}, {w.Faculty[0]}, {w.Courses[0]}}
	return in
}

// graphInputs are the inputs of world L.
func graphInputs(w *world, trails []trail) layerInputs {
	in := layerInputs{hub: w.Nodes[0], leaf: w.Nodes[len(w.Nodes)-1], trails: trails}
	for i := 0; i < len(w.Nodes); i += 10 {
		in.entities = append(in.entities, w.Nodes[i])
		in.keywords = append(in.keywords, keywords(w.Nodes[i]))
	}
	for i := 0; i < 50; i++ {
		in.queries = append(in.queries, fmt.Sprintf("(%s, REL-00, ?x) & (?x, REL-02, ?y)", w.Nodes[i%len(w.Nodes)]))
	}
	return in
}

// best is the least of n timings of f, in the given unit: the layer
// figures are costs of deterministic calls, and the least is the one
// the box's noise has touched least.
func best(n int, unit time.Duration, f func()) float64 {
	least := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		least = min(least, time.Since(t0))
	}
	return float64(least.Nanoseconds()) / float64(unit.Nanoseconds())
}

// perCall times f over all n inputs, reps times, and returns the least
// per-input time in the given unit.
func perCall(reps, n int, unit time.Duration, f func(i int)) float64 {
	return best(reps, unit, func() {
		for i := 0; i < n; i++ {
			f(i)
		}
	}) / float64(max(n, 1))
}

var sink int

// layerSuite measures every module through its public functions, on
// an in-process copy of the workload's world, and reports the
// per-layer metrics that depend on the world alone. dir is scratch
// space for the logged store. World L is never closed over (its
// workload never materializes the closure, and building it takes tens
// of seconds): with closure false, the store reads run on the base
// store, navigation runs on demand, and the layers that only exist
// above a closure report 0.
func layerSuite(dir string, w *world, in layerInputs, closed bool, res *result) error {
	// sym and store: interning, insert, clone, seal, footprint.
	u := fact.NewUniverse()
	res.set("sym.intern_ns", perCall(1, len(w.Facts), time.Nanosecond, func(i int) {
		f := w.Facts[i]
		u.NewFact(f.S, f.R, f.T)
	})/3, "ns", 3*len(w.Facts), "Entity on every name of the world as it loads, first sight or not")
	facts := make([]fact.Fact, len(w.Facts))
	for i, f := range w.Facts {
		facts[i] = u.NewFact(f.S, f.R, f.T)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := store.New(u)
	res.set("store.insert_ns", perCall(1, len(facts), time.Nanosecond, func(i int) { st.Insert(facts[i]) }),
		"ns", len(facts), "Insert into a mutable store, per fact")
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.set("store.heap_bytes_per_fact", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(st.Len()), "B", st.Len(), "heap growth of a mutable store per stored fact")
	var clone *store.Store
	res.set("store.clone_ms", best(3, time.Millisecond, func() { clone = st.Clone() }), "ms", 3, "Clone of the base store")
	res.set("store.seal_ms", best(1, time.Millisecond, clone.Seal), "ms", 1, "Seal of a clone of the base store")
	res.set("store.index_bytes_per_fact", float64(clone.IndexStats().IndexBytes())/float64(clone.Len()), "B", clone.Len(), "IndexStats of the sealed base store")
	runtime.KeepAlive(st)

	// The facade database the remaining layers are called through.
	db, err := loadLive(w)
	if err != nil {
		return err
	}
	reads, readsName := db.Store(), "base store"
	if closed {
		var closure *store.Store
		res.set("rules.closure_full_build_ms", best(1, time.Millisecond, func() { closure = db.Engine().Closure() }), "ms", 1, "Engine.Closure on a fresh engine")
		res.set("rules.closure_facts", float64(closure.Len()), "count", 0, "facts in the materialized closure")
		res.set("rules.closure_ratio", float64(closure.Len())/float64(db.Len()), "ratio", 0, "closure facts per stored fact")
		reads, readsName = closure, "sealed closure"
	} else {
		for _, name := range []string{"rules.closure_full_build_ms", "rules.closure_facts", "rules.closure_ratio",
			"rules.incremental_insert_ms", "rules.dred_delete_ms", "rules.delete_cone_facts",
			"browse.try_us", "query.eval_us", "query.rows_per_result", "probe.wave_ms", "probe.retractions_per_wave", "compose.between_ms"} {
			res.set(name, 0, unitOf(name), 0, "0: the workload never materializes the closure")
		}
	}

	// store reads: seeded patterns with S, SR, RT and T bound.
	ids := make([]sym.ID, len(in.entities))
	for i, name := range in.entities {
		ids[i] = db.Entity(name)
	}
	var pats [][3]sym.ID
	var held []fact.Fact
	for _, id := range ids {
		db.Store().Match(id, sym.None, sym.None, func(f fact.Fact) bool {
			pats = append(pats, [3]sym.ID{f.S, sym.None, sym.None}, [3]sym.ID{f.S, f.R, sym.None},
				[3]sym.ID{sym.None, f.R, f.T}, [3]sym.ID{sym.None, sym.None, f.T})
			held = append(held, f)
			return false
		})
	}
	n := 0
	count := func(fact.Fact) bool { n++; return true }
	res.set("store.match_ns", perCall(5, len(pats), time.Nanosecond, func(i int) {
		reads.Match(pats[i][0], pats[i][1], pats[i][2], count)
	}), "ns", len(pats), "Match on the "+readsName+", S / SR / RT / T bound, whole result enumerated")
	res.set("store.has_ns", perCall(5, len(held), time.Nanosecond, func(i int) {
		if reads.Has(held[i]) {
			n++
		}
	}), "ns", len(held), "Has on the "+readsName)
	res.set("store.estimate_ns", perCall(5, len(pats), time.Nanosecond, func(i int) {
		n += reads.EstimateCount(pats[i][0], pats[i][1], pats[i][2])
	}), "ns", len(pats), "EstimateCount on the "+readsName)
	sink += n

	// browse, query, probe, compose, search through the facade's parts.
	hub, leaf := db.Entity(in.hub), db.Entity(in.leaf)
	br, brName := db.Browser(), "Browser.Neighborhood"
	if !closed {
		br, brName = browse.NewOnDemand(db.Engine(), nil, inferDepth), "on-demand Browser.Neighborhood, subgoals cached,"
		br.Neighborhood(hub)
		br.Neighborhood(leaf)
	}
	res.set("browse.neighborhood_hub_us", best(5, time.Microsecond, func() { br.Neighborhood(hub) }), "us", 5, brName+" of the hub entity")
	res.set("browse.neighborhood_leaf_us", best(20, time.Microsecond, func() { br.Neighborhood(leaf) }), "us", 20, brName+" of a leaf entity")
	res.set("query.parse_us", perCall(3, len(in.queries), time.Microsecond, func(i int) {
		if _, err := db.Parse(in.queries[i]); err != nil {
			panic(err) // the script's own queries
		}
	}), "us", len(in.queries), "Parse of the script's two-atom joins")
	res.set("search.build_ms", best(1, time.Millisecond, func() { db.Searcher().Refresh() }), "ms", 1, "Searcher.Refresh, first build of the index")
	res.set("search.index_bytes", float64(db.Searcher().Refresh().Bytes), "B", 0, "estimated footprint of the search index")
	res.set("search.query_warm_us", perCall(3, len(in.keywords), time.Microsecond, func(i int) {
		db.Search(in.keywords[i], lsdb.SearchOptions{K: 5})
	}), "us", len(in.keywords), "Searcher.Search on the script's keywords, index built")
	if closed {
		closedLayers(db, in, res)
	}

	// On-demand inference: a fresh database, trails cold then warm.
	od, err := loadLive(w)
	if err != nil {
		return err
	}
	oreg := od.Metrics()
	matchTrail := func(t trail) {
		for _, name := range t {
			id := od.Entity(name)
			od.Engine().MatchBounded(id, sym.None, sym.None, inferDepth, count)
			od.Engine().MatchBounded(sym.None, sym.None, id, inferDepth, count)
		}
	}
	var coldMS, warmMS []float64
	for _, t := range in.trails {
		t := t
		coldMS = append(coldMS, best(1, time.Millisecond, func() { matchTrail(t) }))
	}
	cs0 := od.Engine().CacheStats()
	scanned0, joins0 := oreg.Value("lsdb_ondemand_facts_scanned_total"), oreg.Value("lsdb_join_batches_total")
	for _, t := range in.trails {
		t := t
		warmMS = append(warmMS, best(3, time.Millisecond, func() { matchTrail(t) }))
	}
	cs1 := od.Engine().CacheStats()
	res.set("rules.ondemand_cold_ms", median(coldMS), "ms", len(coldMS), "Engine.MatchBounded over one trail, depth 2, first touch")
	res.set("rules.ondemand_warm_ms", median(warmMS), "ms", len(warmMS), "the same trail again")
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	res.set("rules.subgoal_hit_ratio", hits/max(hits+misses, 1), "ratio", int(hits+misses), "shared subgoal table hits per lookup over the warm replays")
	res.set("rules.subgoal_evicted", float64(cs1.Evictions), "count", 0, "subgoal entries evicted, any reason")
	res.set("rules.facts_scanned_per_trail", (oreg.Value("lsdb_ondemand_facts_scanned_total")-scanned0)/float64(3*len(in.trails)), "count", 3*len(in.trails), "base facts scanned per warm trail")
	res.set("rules.join_batches", oreg.Value("lsdb_join_batches_total")-joins0, "count", 0, "batch joins over the warm replays")
	var churnMS []float64
	for i, t := range in.trails {
		t := t
		od.MustAssert(fmt.Sprintf("LAYER-CHURN-%d", i), "in", "LAYER-CHURN-CLASS")
		churnMS = append(churnMS, best(1, time.Millisecond, func() { matchTrail(t) }))
	}
	res.set("rules.trail_churn_ms", median(churnMS), "ms", len(churnMS), "the same trail after one membership Assert, which every trail depends on")
	if od.Engine().Warm() {
		return fmt.Errorf("MatchBounded materialized the closure")
	}

	return durabilitySuite(dir, w, res)
}

// closedLayers measures the layers that work above a materialized
// closure: Try, query evaluation, probing, composition, and closure
// maintenance after a write.
func closedLayers(db *lsdb.Database, in layerInputs, res *result) {
	res.set("browse.try_us", perCall(3, len(in.entities), time.Microsecond, func(i int) { db.Try(in.entities[i]) }), "us", len(in.entities), "Try on the script's entities")
	rows, results := 0, 0
	res.set("query.eval_us", perCall(3, len(in.queries), time.Microsecond, func(i int) {
		q, _ := db.Parse(in.queries[i])
		r, err := db.Eval(q)
		if err != nil {
			panic(err)
		}
		rows += len(r.Tuples)
		results++
	})-res.metrics["query.parse_us"].Value, "us", len(in.queries), "Eval of the same queries")
	res.set("query.rows_per_result", float64(rows)/float64(max(results, 1)), "count", results, "tuples per query answer")
	waves, retractions := 0, 0
	probeMS := 0.0
	np := min(len(in.probes), 20)
	if np > 0 {
		probeMS = perCall(2, np, time.Millisecond, func(i int) {
			q, err := db.Parse(in.probes[i])
			if err != nil {
				panic(err)
			}
			out, err := db.Prober().Probe(q)
			if err != nil {
				panic(err)
			}
			for _, wv := range out.Waves {
				waves++
				retractions += len(wv.Entries)
			}
		})
	}
	res.set("probe.wave_ms", probeMS, "ms", np, "Prober.Probe of the script's failing queries")
	res.set("probe.retractions_per_wave", float64(retractions)/float64(max(waves, 1)), "count", waves, "retraction queries tried per wave")
	res.set("compose.between_ms", perCall(1, len(in.pairs), time.Millisecond, func(i int) { db.Between(in.pairs[i][0], in.pairs[i][1]) }),
		"ms", len(in.pairs), "Between on 20 seeded pairs; no workload uses it yet")

	// Closure maintenance: one Assert, then one Retract, each followed
	// by the Closure call that pays for it.
	var ins, del []float64
	for i := 0; i < 5; i++ {
		s, t := in.entities[i%len(in.entities)], fmt.Sprintf("LAYER-VISITOR-%d", i)
		db.MustAssert(s, "FRIEND-OF", t)
		ins = append(ins, best(1, time.Millisecond, func() { db.Engine().Closure() }))
		db.Retract(s, "FRIEND-OF", t)
		del = append(del, best(1, time.Millisecond, func() { db.Engine().Closure() }))
	}
	res.set("rules.incremental_insert_ms", quantile(ins, 0), "ms", len(ins), "Closure after one Assert (incremental maintenance)")
	res.set("rules.dred_delete_ms", quantile(del, 0), "ms", len(del), "Closure after one Retract (delete and rederive)")
	cone := db.Metrics().Histogram("lsdb_closure_delete_cone_facts")
	res.set("rules.delete_cone_facts", float64(cone.Sum())/float64(max(cone.Count(), 1)), "count", int(cone.Count()), "facts in the delete cone of one retraction")
}

// durabilitySuite measures the logged store: commit, fsyncs, WAL
// bytes, checkpoint, the stall a checkpoint imposes on writers, WAL
// replay and snapshot load.
func durabilitySuite(dir string, w *world, res *result) error {
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logPath, snapPath := filepath.Join(dir, "layers.log"), filepath.Join(dir, "layers.snapshot")
	db, err := lsdb.Open(lsdb.Options{LogPath: logPath, SyncPolicy: lsdb.SyncAlways})
	if err != nil {
		return err
	}
	nf := min(400, len(w.Facts)/4) // commits with an fsync each
	pre := make([]fact.Fact, len(w.Facts))
	for i, f := range w.Facts {
		pre[i] = db.Universe().NewFact(f.S, f.R, f.T)
	}
	var commit samples
	for _, f := range pre[:nf] {
		t0 := time.Now()
		if err := db.AssertFact(f); err != nil {
			return err
		}
		commit.add(time.Since(t0))
	}
	ls := db.LogStats()
	res.set("store.commit_us", quantile(commit, 0.25)*1000, "us", len(commit), "AssertFact on a logged store, fsync on every commit; best quartile")
	res.set("store.fsyncs_per_commit", float64(ls.Fsyncs)/float64(ls.Appends), "ratio", int(ls.Appends), "fsyncs per appended record, one writer")
	if fi, err := os.Stat(logPath); err == nil {
		res.set("store.wal_bytes_per_fact", float64(fi.Size())/float64(ls.Appends), "B", int(ls.Appends), "log bytes per appended fact")
	}
	db.Close()

	// Bulk-load the rest without fsync, then checkpoint with a writer
	// running beside it.
	db, err = lsdb.Open(lsdb.Options{LogPath: logPath, SyncPolicy: lsdb.SyncNever, CheckpointSnapshot: snapPath})
	if err != nil {
		return err
	}
	for _, f := range w.Facts[nf:] {
		if err := db.Assert(f.S, f.R, f.T); err != nil {
			return err
		}
	}
	db.Store().SetAutoCheckpoint(0, snapPath)
	loaded := db.Len() // the whole world; the snapshot must hold at least this
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stall events
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			db.MustAssert(fmt.Sprintf("STALL-%d", i), "FRIEND-OF", "STALL-SINK")
			t1 := time.Now()
			stall = append(stall, event{start: t0.Sub(start), end: t1.Sub(start), ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	c0 := time.Since(start)
	if err := db.Store().Checkpoint(); err != nil {
		return err
	}
	c1 := time.Since(start)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	res.set("store.checkpoint_ms", float64((c1-c0).Nanoseconds())/1e6, "ms", 1, "Store.Checkpoint: snapshot and log compaction of the whole world")
	during := overlapping(stall, [][2]time.Duration{{c0, c1}})
	res.set("store.write_stall_p95_ms", quantile(during, 0.95), "ms", len(during), "Assert latency of a writer running beside that checkpoint")
	final := db.Len() // with the stall writer's facts; the log must replay to exactly this
	db.Close()

	// Recovery: a time only counts when what came back is all there.
	res.attempted += 2
	res.set("store.wal_replay_ms", best(1, time.Millisecond, func() {
		r, err := lsdb.Open(lsdb.Options{LogPath: logPath, SyncPolicy: lsdb.SyncNever})
		if err != nil {
			res.fail(1, fmt.Errorf("replay of the compacted log: %w", err))
			return
		}
		if r.Len() != final {
			res.fail(1, fmt.Errorf("replay of the compacted log gave %d facts, the store held %d", r.Len(), final))
		}
		r.Close()
	}), "ms", 1, "lsdb.Open on the compacted log of the whole world")
	res.set("store.snapshot_load_ms", best(1, time.Millisecond, func() {
		r := lsdb.New()
		if err := r.LoadSnapshot(snapPath); err != nil {
			res.fail(1, fmt.Errorf("load of the checkpoint's snapshot: %w", err))
		} else if r.Len() < loaded || r.Len() > final {
			res.fail(1, fmt.Errorf("the checkpoint's snapshot holds %d facts, the store held between %d and %d", r.Len(), loaded, final))
		}
	}), "ms", 1, "LoadSnapshot of the checkpoint's snapshot into an empty database")
	return nil
}
