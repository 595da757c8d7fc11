package main

import (
	"fmt"
	"os"
	"time"
)

// Frozen sizes of workload infer_ondemand.
const (
	graphNodes = 2000
	graphFacts = 20000
	inferDepth = 2 // on-demand derivation depth of every trail
	// nTrails distinct trails make the working set. Eight need ≈190k
	// subgoal entries and fit the engine's 2^18-entry table; the 64 the
	// issue asked for need 1.25M, and past the cap results are no
	// longer shared, so "warm" would measure the cold path again.
	nTrails = 8
	// warmPasses replays of all trails per round follow the cold pass:
	// 200 warm trails a round and library for every 8 cold ones.
	warmPasses = 25
)

// runInfer is workload infer_ondemand: one goroutine embedding package
// lsdb, no HTTP, no closure ever materialized. It replays 5-entity
// navigation trails through the depth-2 on-demand browser in rounds,
// every trail through the live library and through the reference
// library in turn. Each round starts from freshly loaded databases and
// runs a cold pass (every trail's first touch), warm passes (the same
// trails again), and a churn pass (one Assert before each replay, by
// turns outside and inside what the trail depends on). Rounds repeat
// until the run's seconds are used up.
func runInfer(e *env, cfg config) (*result, error) {
	res := newResult(cfg.workload)
	nodes := max(int(graphNodes*cfg.scale), 50)
	facts := max(int(graphFacts*cfg.scale), 300)
	var w *world
	var dbs [2]embedded
	var setups [2][]float64
	for n := 0; n < 2*2*cfg.setups; n++ { // a set-up is ≈60 ms: repeat it more often
		_, side := turn(n, 0, 2)
		start := time.Now()
		w = graphL(cfg.seed, nodes, facts)
		var err error
		if dbs[side], err = libraries[side].load(w); err != nil {
			return nil, sideErr(side, err)
		}
		setups[side] = append(setups[side], time.Since(start).Seconds())
	}
	trails := trailScript(cfg.seed, w, nTrails)
	if err := checkPins(cfg, map[string]string{"world": w.sha256(), "script": scriptSHA(trails)}, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceInfer(e, cfg, res, w, trails)
	}
	golden := loadGolden(cfg, len(trails))

	var cold, warm, churnIn, churnOut [2]samples
	steps := 0
	// timed replays trail i on one side and then on the other.
	timed := func(into *[2]samples, i int, phase string, before func(side int)) {
		for range dbs {
			_, side := turn(steps, 0, 2)
			steps++
			if before != nil {
				before(side)
			}
			t0 := time.Now()
			digest := dbs[side].replay(trails[i])
			into[side].add(time.Since(t0))
			res.attempted += len(trails[i])
			switch {
			case golden[i] == "":
				golden[i] = digest
			case golden[i] != digest:
				res.fail(1, fmt.Errorf("trail %d (%s, %s side): answer digest %s, want %s", i, phase, sideName[side], digest, golden[i]))
			}
		}
	}
	// round is one round over databases loaded afresh.
	writes := 0
	round := func() {
		for i := range trails {
			timed(&cold, i, "cold", nil)
		}
		for p := 0; p < warmPasses; p++ {
			for i := range trails {
				timed(&warm, i, "warm", nil)
			}
		}
		noise := [2]string{dbs[live].unrelatedRelation(), dbs[ref].unrelatedRelation()}
		for i := range trails {
			// A write outside the trail's dependency set leaves its
			// cached subgoals alone; a membership write is inside every
			// trail's set and evicts them. Neither changes an answer.
			writes++
			name := fmt.Sprintf("CHURN-%d", writes)
			if i%2 == 0 {
				timed(&churnOut, i, "churn", func(side int) { dbs[side].assert(name, noise[side], "CHURN-SINK") })
			} else {
				timed(&churnIn, i, "churn", func(side int) { dbs[side].assert(name, "in", "K1") })
			}
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if n > 0 {
			for side := range dbs {
				var err error
				if dbs[side], err = libraries[side].load(w); err != nil {
					return nil, sideErr(side, err)
				}
			}
		}
		round()
	}
	if *updateGolden {
		if err := saveGolden(e, cfg, golden); err != nil {
			return nil, err
		}
	}
	for side, db := range dbs {
		if db.closureBuilt() {
			res.fail(1, sideErr(side, fmt.Errorf("the closure was materialized: the workload must stay on the on-demand path")))
		}
	}

	// Peak memory is that of a process embedding the live library alone:
	// drop both sides' databases, count from here, and run one more
	// round on the live side only.
	dbs = [2]embedded{}
	rssNote := "VmHWM of the benchmark process over one round with the live library alone"
	if err := resetOwnRSSPeak(); err != nil {
		rssNote = "VmHWM of the benchmark process since it started (" + err.Error() + ")"
	}
	db, err := libraries[live].load(w)
	if err != nil {
		return nil, err
	}
	for p := 0; p <= warmPasses; p++ {
		for i := range trails {
			if digest := db.replay(trails[i]); digest != golden[i] {
				res.fail(1, fmt.Errorf("trail %d (memory round): answer digest %s, want %s", i, digest, golden[i]))
			}
			res.attempted += len(trails[i])
		}
	}
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	res.against("setup_s", "s", median(setups[live]), median(setups[ref]), len(setups[live]), "generate world L and load it by library calls")
	res.against("unit_p50_ms", "ms", quantile(warm[live], 0.5), quantile(warm[ref], 0.5), len(warm[live]),
		"trail_warm_p50_ms: one 5-entity trail at depth 2, subgoals cached")
	res.against("unit_tail_ms", "ms", quantile(warm[live], 0.95), quantile(warm[ref], 0.95), len(warm[live]), "trail_warm_p95_ms")
	res.against("slow_p50_ms", "ms", quantile(cold[live], 0.5), quantile(cold[ref], 0.5), len(cold[live]),
		"trail_cold_p50_ms: a trail's first touch on a freshly loaded database")
	in, out := quantile(churnIn[live], 0.5), quantile(churnOut[live], 0.5)
	res.infof("live library: trail_churn_p50_ms %.4f ms: a trail after one Assert, mean of the medians inside (%.4f ms, n=%d) and outside (%.4f ms, n=%d) its dependency set",
		(in+out)/2, in, len(churnIn[live]), out, len(churnOut[live]))
	res.set("rss_peak_mb", rss, "MB", 0, rssNote)
	return res, nil
}
