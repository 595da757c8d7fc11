// Command benchmark is this repository's benchmark: four workloads
// over the two ways people use the system (HTTP clients of an lsdbd
// child process; Go programs embedding package lsdb), a correctness
// gate on every answer, and a traced run that attributes time to
// layers. See README.md in this directory and BENCHMARK.json at the
// root of the repository.
//
//	go run ./benchmark                                   all workloads, seed 1
//	go run ./benchmark --workload browse_warm --seed 2 --seconds 15 --trace 0
//	go run ./benchmark --workload browse_warm --trace 1  per-layer ladder
//	go run ./benchmark -aa 5                             A/A: two alternating sets of 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int     // C = min(nproc, 4)
	scale    float64 // world-size multiplier; 1 except in tests
	setups   int     // how many times set-up is repeated for its median
}

// duration is the run's measuring time, a whole number of slices.
func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second)).Truncate(sliceWidth)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it (0 = a count or a single measurement)
	note  string  // what it is on this workload
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	attempted, failed int
	firstErr          error
	metrics           map[string]value
	refs              map[string]float64 // the reference build's own reading behind a metric
	info              []string           // lines for the human reader
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]value), refs: make(map[string]float64)}
}

// set reports one metric. Reporting a name twice is a bug in the
// workload, not something input can cause.
func (r *result) set(name string, v float64, unit string, n int, note string) {
	if _, dup := r.metrics[name]; dup {
		panic("metric " + name + " reported twice")
	}
	r.metrics[name] = value{Value: v, Unit: unit, n: n, note: note}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail counts n failed operations and keeps the first cause.
func (r *result) fail(n int, err error) {
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// absorb folds a client's tallies into the result.
func (r *result) absorb(c *client) {
	r.attempted += c.attempted
	r.failed += c.failed
	if r.firstErr == nil {
		r.firstErr = c.firstErr
	}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env, config) (*result, error){
	"browse_warm":    func(e *env, c config) (*result, error) { return runBrowse(e, c, false) },
	"browse_churn":   func(e *env, c config) (*result, error) { return runBrowse(e, c, true) },
	"infer_ondemand": runInfer,
	"ingest_recover": runIngest,
}

// runOne runs one workload and checks that it reported exactly the
// metrics BENCHMARK.json lists for this kind of run.
func runOne(e *env, cfg config) (*result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res, err := run(e, cfg)
	if err != nil {
		return nil, err
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	if err := res.conform(want); err != nil {
		return nil, err
	}
	return res, nil
}

// print writes the human-readable report and then the result line.
func (r *result) print(cfg config) {
	fmt.Printf("# workload %s seed %d seconds %g trace %v clients %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.clients)
	for _, line := range r.info {
		fmt.Println("# " + line)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.metrics[name]
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("n=%d", v.n)
		}
		fmt.Printf("%-38s %14.4f %-8s %-9s %s\n", name, v.Value, v.Unit, n, v.note)
	}
	if r.firstErr != nil {
		fmt.Printf("# first failure: %v\n", r.firstErr)
	}
	fmt.Printf("# error_rate %g (%d failed of %d attempted)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Println(string(line))
}

func main() {
	var cfg config
	var aa int
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from (2 is the hold-out)")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	flag.IntVar(&aa, "aa", 0, "A/A mode: two alternating sets of N runs of every workload on this one binary")
	flag.Float64Var(&cfg.scale, "scale", 1, "world-size multiplier (tests use a tiny one)")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.clients = min(runtime.NumCPU(), 4)
	cfg.setups = 5

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	code := 0
	switch {
	case aa > 0:
		code = runAA(e, cfg, aa)
	case cfg.workload != "":
		res, err := runOne(e, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 2
			break
		}
		res.print(cfg)
		if res.failed > 0 {
			code = 1
		}
	default:
		// Every workload, timed and then traced: all end-to-end and all
		// per-layer metrics in one command.
	all:
		for _, w := range spec.Workloads {
			for _, trace := range []bool{false, true} {
				cfg.workload, cfg.trace = w.Name, trace
				res, err := runOne(e, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					code = 2
					break all
				}
				res.print(cfg)
				if res.failed > 0 {
					code = 1
				}
			}
		}
	}
	if err := savePins(e); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 2
	}
	e.cleanup()
	os.Exit(code)
}
