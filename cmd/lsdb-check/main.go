// Command lsdb-check soaks the differential correctness harness: it
// loops generate → mutate → check over a seed range or time budget,
// running oracles of internal/check's table on each generated world. On
// the first divergence it greedily shrinks the failing world against
// the oracle that fired and prints the minimal repro program, then
// exits non-zero.
//
// Usage:
//
//	lsdb-check -seeds 200              # every world oracle on 200 consecutive seeds
//	lsdb-check -duration 60s           # as many seeds as fit in 60s
//	lsdb-check -size medium -seeds 50  # bigger worlds
//	lsdb-check -churn -seeds 100       # high-churn write/retract/toggle schedules
//	lsdb-check -inject member-source   # verify the harness catches a bug
//	lsdb-check -only search-vs-scan,search-incremental -seeds 500  # named oracles only
//	lsdb-check -only crash-recovery -points 25 -seeds 20           # 25 crash points per seed
//	lsdb-check -only replication -points 20 -seeds 20              # 20 fault points per scenario per seed
//	lsdb-check -only scale -points 200000 -start 1 -seeds 1        # sealed-vs-mutable on a Zipf world
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	lsdb "repro"
	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/rules"
)

type config struct {
	seeds    int
	start    int64
	duration time.Duration
	size     string
	churn    bool
	inject   string
	only     string
	points   int
	verbose  bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.seeds, "seeds", 200, "number of consecutive seeds to check (0 = until -duration expires)")
	flag.Int64Var(&cfg.start, "start", 0, "first seed")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this much wall time (0 = seed count only)")
	flag.StringVar(&cfg.size, "size", "small", "world size: small, medium or large")
	flag.BoolVar(&cfg.churn, "churn", false, "append high-churn assert/retract/toggle bursts to every world (alternating shared and disjoint relationship classes across seeds)")
	flag.StringVar(&cfg.inject, "inject", "", "deliberately exclude this standard rule on one side (harness self-test; expects a failure)")
	flag.StringVar(&cfg.only, "only", "", "comma-separated oracles to run instead of every world oracle; the sweeps crash-recovery, replication and scale run only when named here")
	flag.IntVar(&cfg.points, "points", 0, "sweep width: crash points per seed, replication fault points per scenario per seed, or scale-world facts (0 = each sweep's default)")
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

	oracles, err := check.Select(cfg.only)
	if err != nil {
		return fmt.Errorf("-only: %v", err)
	}
	opts := check.Options{Points: cfg.points}
	if cfg.inject != "" {
		r, ok := rules.StdRuleByName(cfg.inject)
		if !ok {
			return fmt.Errorf("unknown rule %q for -inject", cfg.inject)
		}
		opts.Perturb = func(db *lsdb.Database) { db.Engine().Exclude(r) }
	}

	deadline := time.Time{}
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	if cfg.seeds == 0 && cfg.duration == 0 {
		return fmt.Errorf("need -seeds or -duration")
	}

	started := time.Now()
	checked := 0
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
		for _, o := range oracles {
			f := o.Check(w, opts)
			if f == nil {
				continue
			}
			fmt.Fprintf(out, "seed %d failed after %d clean seeds (%.1fs)\n",
				seed, checked, time.Since(started).Seconds())
			if o.Cost == check.Sweep {
				fmt.Fprintf(out, "oracle failure: %s\n", f.Error())
			} else {
				fmt.Fprint(out, check.Describe(f, o.Shrink(w, opts)))
			}
			if cfg.inject != "" {
				fmt.Fprintf(out, "injected bug (%s) detected: harness works\n", cfg.inject)
				return nil
			}
			return fmt.Errorf("oracle %s failed at seed %d", f.Oracle, seed)
		}
		checked++
		if cfg.verbose {
			fmt.Fprintf(out, "seed %d ok\n", seed)
		}
	}

	if cfg.inject != "" {
		return fmt.Errorf("injected bug (%s) was NOT detected across %d seeds", cfg.inject, checked)
	}
	names := make([]string, len(oracles))
	for i, o := range oracles {
		names[i] = o.Name
	}
	fmt.Fprintf(out, "ok: %d seeds (%s worlds, start %d) in %.1fs: %s\n",
		checked, cfg.size, cfg.start, time.Since(started).Seconds(), strings.Join(names, ", "))
	return nil
}
