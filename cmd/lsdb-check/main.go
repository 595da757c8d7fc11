// Command lsdb-check soaks the differential correctness harness: it
// loops generate → mutate → check over a seed range or time budget,
// running every oracle of internal/check on each generated world. On
// the first divergence it greedily shrinks the failing world and
// prints the minimal repro program, then exits non-zero.
//
// Usage:
//
//	lsdb-check -seeds 200              # check 200 consecutive seeds
//	lsdb-check -duration 60s           # check as many seeds as fit in 60s
//	lsdb-check -size medium -seeds 50  # bigger worlds
//	lsdb-check -churn -seeds 100       # high-churn write/retract/toggle schedules
//	lsdb-check -inject member-source   # verify the harness catches a bug
//	lsdb-check -search -seeds 500      # the two keyword-search oracles only (fast soak)
//	lsdb-check -crash 25               # sweep 25 durability crash points per seed
//	lsdb-check -repl 20                # sweep 20 replication fault points per scenario per seed
//	lsdb-check -scale 200000           # sealed-vs-mutable differential on a Zipf scale world
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	lsdb "repro"
	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/rules"
	"repro/internal/store"
)

type config struct {
	seeds    int
	start    int64
	duration time.Duration
	size     string
	churn    bool
	workers  int
	inject   string
	crash    int
	repl     int
	scale    int
	search   bool
	verbose  bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.seeds, "seeds", 200, "number of consecutive seeds to check (0 = until -duration expires)")
	flag.Int64Var(&cfg.start, "start", 0, "first seed")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this much wall time (0 = seed count only)")
	flag.StringVar(&cfg.size, "size", "small", "world size: small, medium or large")
	flag.BoolVar(&cfg.churn, "churn", false, "append high-churn assert/retract/toggle bursts to every world (alternating shared and disjoint relationship classes across seeds)")
	flag.IntVar(&cfg.workers, "workers", 8, "parallel worker count compared against sequential builds")
	flag.StringVar(&cfg.inject, "inject", "", "deliberately exclude this standard rule on one side (harness self-test; expects a failure)")
	flag.IntVar(&cfg.crash, "crash", 0, "also sweep this many crash points per seed through the durability-log fault injector")
	flag.IntVar(&cfg.repl, "repl", 0, "also sweep this many replication fault points per scenario per seed (drops, follower crashes, bootstrap faults, primary crashes)")
	flag.IntVar(&cfg.scale, "scale", 0, "also run the sealed-vs-mutable differential on a Zipf world with this many facts (LSDB_SCALE_FACTS overrides)")
	flag.BoolVar(&cfg.search, "search", false, "run only the keyword-search oracles per seed, search-vs-scan and search-incremental (a deep search soak; skips the other oracles)")
	flag.BoolVar(&cfg.verbose, "v", false, "log every seed")
	flag.Parse()

	// An explicit -duration with no explicit -seeds means "as many
	// seeds as fit", not "200 seeds or the deadline, whichever first".
	seedsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seeds" {
			seedsSet = true
		}
	})
	if cfg.duration > 0 && !seedsSet {
		cfg.seeds = 0
	}

	if err := soak(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lsdb-check:", err)
		os.Exit(1)
	}
}

// soak runs the generate→check loop, returning an error on the first
// oracle failure (after printing its shrunk repro to out). When
// cfg.inject names a rule, success is inverted: the run must detect
// the injected divergence.
func soak(cfg config, out io.Writer) error {
	var worldCfg gen.Config
	switch cfg.size {
	case "small":
		worldCfg = gen.Small()
	case "medium":
		worldCfg = gen.Medium()
	case "large":
		worldCfg = gen.Large()
	default:
		return fmt.Errorf("unknown -size %q (want small, medium or large)", cfg.size)
	}

	var churnCfg gen.ChurnConfig
	if cfg.churn {
		switch cfg.size {
		case "small":
			churnCfg = gen.SmallChurn()
		case "medium":
			churnCfg = gen.MediumChurn()
		default:
			return fmt.Errorf("-churn supports -size small or medium, not %q", cfg.size)
		}
	}

	var cacheAgg rules.CacheStats
	opts := check.Options{Workers: cfg.workers, CacheStatsSink: func(st rules.CacheStats) {
		cacheAgg.Hits += st.Hits
		cacheAgg.Misses += st.Misses
		cacheAgg.Invalidations += st.Invalidations
		cacheAgg.Evictions += st.Evictions
	}}
	if cfg.inject != "" {
		r, ok := rules.StdRuleByName(cfg.inject)
		if !ok {
			return fmt.Errorf("unknown rule %q for -inject", cfg.inject)
		}
		opts.Perturb = func(db *lsdb.Database) { db.Engine().Exclude(r) }
	}

	if cfg.scale > 0 {
		// One memory-scale differential up front: the Zipf bulk-sealed
		// posting index versus the mutable insert path, probed
		// concurrently. Not per-seed — a scale world costs seconds.
		facts := cfg.scale
		if env := os.Getenv("LSDB_SCALE_FACTS"); env != "" {
			n, err := strconv.Atoi(env)
			if err != nil {
				return fmt.Errorf("bad LSDB_SCALE_FACTS %q: %v", env, err)
			}
			facts = n
		}
		t0 := time.Now()
		if f := check.SealedVsMutableScale(gen.ScaleConfig{Facts: facts, Seed: cfg.start + 1}); f != nil {
			fmt.Fprintf(out, "scale differential failed: %s\n", f.Detail)
			return fmt.Errorf("oracle %s failed at scale %d", f.Oracle, facts)
		}
		fmt.Fprintf(out, "scale differential ok: %d-fact zipf world in %.1fs\n",
			facts, time.Since(t0).Seconds())
	}

	deadline := time.Time{}
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	if cfg.seeds == 0 && cfg.duration == 0 {
		return fmt.Errorf("need -seeds or -duration")
	}

	started := time.Now()
	checked, crashPoints, replPoints := 0, 0, 0
	for seed := cfg.start; ; seed++ {
		if cfg.seeds > 0 && checked >= cfg.seeds {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		w := gen.Generate(seed, worldCfg)
		if cfg.churn {
			// Alternate the churn regime: even seeds share the seed
			// world's relationship classes (real evictions and delete
			// cones), odd seeds write disjoint ones (the cache should
			// stay warm).
			cc := churnCfg
			cc.Disjoint = seed%2 != 0
			w = gen.Churn(seed, cc)
		}
		run := check.Run
		if cfg.search {
			run = searchOracles
		}
		if f := run(w, opts); f != nil {
			// Shrink against the specific oracle that fired, with
			// persistence off so the loop doesn't thrash the disk.
			shrinkOpts := opts
			shrinkOpts.SkipPersistence = true
			fails := func(c *gen.World) bool {
				g := run(c, shrinkOpts)
				return g != nil && g.Oracle == f.Oracle
			}
			repro := w
			if fails(w) {
				repro = gen.Shrink(w, fails)
			}
			fmt.Fprintf(out, "seed %d failed after %d clean seeds (%.1fs)\n",
				seed, checked, time.Since(started).Seconds())
			fmt.Fprint(out, check.Describe(f, repro))
			if cfg.inject != "" {
				fmt.Fprintf(out, "injected bug (%s) detected: harness works\n", cfg.inject)
				return nil
			}
			return fmt.Errorf("oracle %s failed at seed %d", f.Oracle, seed)
		}
		if cfg.crash > 0 {
			// Rotate sync policies across seeds so the sweep covers
			// fsync-per-commit, explicit-sync, and timed-flush recovery.
			cc := check.CrashConfig{Seed: seed, Points: cfg.crash}
			switch seed % 3 {
			case 0:
				cc.Policy, cc.CheckpointEvery = store.SyncAlways, 8
			case 1:
				cc.Policy, cc.SyncEvery = store.SyncNever, 5
			default:
				cc.Policy, cc.CheckpointEvery = store.SyncInterval(time.Millisecond), 8
			}
			n, f := check.CrashScan(cc)
			crashPoints += n
			if f != nil {
				fmt.Fprintf(out, "seed %d failed crash sweep (policy %s) after %d clean seeds\n",
					seed, cc.Policy, checked)
				fmt.Fprintln(out, f.Detail)
				return fmt.Errorf("oracle %s failed at seed %d", f.Oracle, seed)
			}
		}
		if cfg.repl > 0 {
			n, f := check.ReplScan(check.ReplConfig{Seed: seed, Points: cfg.repl})
			replPoints += n
			if f != nil {
				fmt.Fprintf(out, "seed %d failed replication sweep after %d clean seeds\n", seed, checked)
				fmt.Fprintln(out, f.Detail)
				return fmt.Errorf("oracle %s failed at seed %d", f.Oracle, seed)
			}
		}
		checked++
		if cfg.verbose {
			fmt.Fprintf(out, "seed %d ok\n", seed)
		}
	}

	if cfg.inject != "" {
		return fmt.Errorf("injected bug (%s) was NOT detected across %d seeds", cfg.inject, checked)
	}
	if cfg.verbose && !cfg.search {
		fmt.Fprintf(out, "subgoal cache (cached-vs-uncached oracle): %d hits, %d misses, %d invalidations, %d evictions\n",
			cacheAgg.Hits, cacheAgg.Misses, cacheAgg.Invalidations, cacheAgg.Evictions)
	}
	if crashPoints > 0 {
		fmt.Fprintf(out, "crash sweep: %d crash points recovered cleanly\n", crashPoints)
	}
	if replPoints > 0 {
		fmt.Fprintf(out, "replication sweep: %d fault points held the prefix and closure invariants\n", replPoints)
	}
	fmt.Fprintf(out, "ok: %d seeds (%s worlds, start %d) in %.1fs\n",
		checked, cfg.size, cfg.start, time.Since(started).Seconds())
	return nil
}

// searchOracles runs the two keyword-search oracles: the index against
// a store scan, and the patched index against a fresh build.
func searchOracles(w *gen.World, opts check.Options) *check.Failure {
	if f := check.SearchVsScan(w, opts); f != nil {
		return f
	}
	return check.SearchIncremental(w, opts)
}
