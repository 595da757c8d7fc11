package main

import (
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinyRuns runs every workload once untraced and once traced at a
// tiny scale, once per test binary.
var tinyRuns = struct {
	once    sync.Once
	err     error
	results map[string]*result // "workload/0" untraced, "workload/1" traced
	httpIn  map[string]int64   // HTTP requests each run sent
}{}

func tiny(t *testing.T) map[string]*result {
	t.Helper()
	tinyRuns.once.Do(func() {
		sliceWidth, writeEvery = 25*time.Millisecond, 10*time.Millisecond
		e, err := newEnv()
		if err != nil {
			tinyRuns.err = err
			return
		}
		defer e.cleanup()
		tinyRuns.results = make(map[string]*result)
		tinyRuns.httpIn = make(map[string]int64)
		for _, w := range spec.Workloads {
			wl := w.Name
			for _, trace := range []bool{false, true} {
				cfg := config{workload: wl, seed: 1, seconds: 0.25, trace: trace, clients: 2, scale: 0.04, setups: 1}
				key := wl + "/0"
				if trace {
					key = wl + "/1"
				}
				before := httpRequests.Load()
				res, err := runOne(e, cfg)
				if err != nil {
					tinyRuns.err = err
					return
				}
				tinyRuns.results[key] = res
				tinyRuns.httpIn[key] = httpRequests.Load() - before
			}
		}
	})
	if tinyRuns.err != nil {
		t.Fatal(tinyRuns.err)
	}
	return tinyRuns.results
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	sz := sizeS.scaled(0.1)
	a, b, c := campus(1, sz), campus(1, sz), campus(2, sz)
	if a.sha256() != b.sha256() {
		t.Error("campus: the same seed gave two different worlds")
	}
	if a.sha256() == c.sha256() {
		t.Error("campus: seeds 1 and 2 gave the same world")
	}
	if x, y := scriptSHA(browseScript(1, a, 64)), scriptSHA(browseScript(1, b, 64)); x != y {
		t.Error("browseScript: the same seed gave two different scripts")
	}
	if x, y := scriptSHA(browseScript(1, a, 64)), scriptSHA(browseScript(2, a, 64)); x == y {
		t.Error("browseScript: seeds 1 and 2 gave the same script")
	}
	if x, y := scriptSHA(churnScript(1, a, 32)), scriptSHA(churnScript(1, b, 32)); x != y {
		t.Error("churnScript: the same seed gave two different scripts")
	}
	g, h := graphL(1, 200, 1500), graphL(1, 200, 1500)
	if g.sha256() != h.sha256() {
		t.Error("graphL: the same seed gave two different worlds")
	}
	if x, y := scriptSHA(trailScript(1, g, 8)), scriptSHA(trailScript(1, h, 8)); x != y {
		t.Error("trailScript: the same seed gave two different scripts")
	}
}

// Every metric BENCHMARK.json lists has a valid name and is reported
// exactly once by every workload, in its declared unit: runOne refuses
// a result that does not conform, and set refuses a name reported
// twice.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	results := tiny(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("BENCHMARK.json: %q is not a valid metric name, or is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range spec.Workloads {
		wl := w.Name
		for mode, want := range map[string][]metricDef{"/0": spec.EndToEnd, "/1": spec.PerLayer} {
			res := results[wl+mode]
			if err := res.conform(want); err != nil {
				t.Errorf("%s%s: %v", wl, mode, err)
			}
			if res.failed > 0 {
				t.Errorf("%s%s: %d of %d operations failed: %v", wl, mode, res.failed, res.attempted, res.firstErr)
			}
		}
	}
}

func TestControlPredictions(t *testing.T) {
	results := tiny(t)
	warm, churn := results["browse_warm/1"].metrics, results["browse_churn/1"].metrics
	for _, name := range []string{"rules.rebuilds_full", "rules.rebuilds_incremental", "rules.rebuilds_delete", "search.builds"} {
		if v := warm[name].Value; v != 0 {
			t.Errorf("browse_warm: %s = %g, want 0: nothing is written", name, v)
		}
	}
	if v := churn["rules.rebuilds_incremental"].Value + churn["rules.rebuilds_delete"].Value + churn["rules.rebuilds_full"].Value; v == 0 {
		t.Error("browse_churn: no closure rebuild of any kind, want some: there is a writer")
	}
	if v := churn["search.builds"].Value; v == 0 {
		t.Error("browse_churn: search.builds = 0, want some: every write invalidates the index")
	}
	for _, key := range []string{"infer_ondemand/0", "infer_ondemand/1"} {
		if n := tinyRuns.httpIn[key]; n != 0 {
			t.Errorf("%s sent %d HTTP requests, want none", key, n)
		}
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3, rel := spread(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || rel != 1 {
		t.Errorf("spread = %g %g %g %g, want 2.75 5.5 8.25 1", q1, med, q3, rel)
	}
}

// A server that stalls once delays every request scheduled behind the
// stall; an open loop must charge them that wait.
func TestOpenLoopCountsFromTheDueTime(t *testing.T) {
	sliceWidth = 50 * time.Millisecond
	const stall = 120 * time.Millisecond
	var first sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() { time.Sleep(stall) })
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	script := []session{{Kind: "walk", Ops: []op{{Kind: "navigate", Arg: "X"}}}}
	g := newLoadgen([]*daemon{{base: srv.URL}}, 1, script, nil)
	defer g.close()
	g.start = time.Now()
	// 1000 req/s for 100 ms: about 100 arrivals are due during the stall.
	g.open(newOpenSchedule(1, script, 1000), 2*sliceWidth)
	if len(g.openLat) < 50 {
		t.Fatalf("only %d arrivals", len(g.openLat))
	}
	waited := 0
	for _, ev := range g.openLat {
		if ev.ms > float64(stall.Milliseconds())/3 {
			waited++
		}
	}
	// Timed from the send, only the first request would be slow.
	if waited < len(g.openLat)/4 {
		t.Errorf("%d of %d requests were charged for the stall; from the due time, every request due during it is", waited, len(g.openLat))
	}
	if late := quantile(g.openLate.ms(), 0.5); late <= 0 {
		t.Errorf("median lateness %g ms, want > 0 after a stall", late)
	}
}

func TestWrongAnswersAreCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/try" {
			w.WriteHeader(http.StatusTooManyRequests)
		}
		w.Write([]byte(`{"entity":"X","out":["Y"]}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	s := session{Kind: "walk", Ops: []op{
		{Kind: "navigate", Arg: "X", Expect: []string{`"Y"`}},
		{Kind: "navigate", Arg: "X", Expect: []string{`"Z"`}},
		{Kind: "try", Arg: "X"},
	}}
	_, ok, _ := c.runSession(s)
	if ok || c.attempted != 3 || c.failed != 2 {
		t.Errorf("ok=%v attempted=%d failed=%d, want false 3 2 (a missing fragment and a 429)", ok, c.attempted, c.failed)
	}
}

// Driving two sides, every unit of work is done once on each, and the
// side that goes first changes from one unit to the next.
func TestTurnAlternatesSides(t *testing.T) {
	for k := 0; k < 2; k++ {
		firsts := map[int]int{}
		for n := 0; n < 40; n += 2 {
			u0, s0 := turn(n, k, 2)
			u1, s1 := turn(n+1, k, 2)
			if u0 != n/2 || u1 != n/2 || s0 == s1 {
				t.Fatalf("client %d steps %d,%d: units %d,%d sides %d,%d; want unit %d once on each side", k, n, n+1, u0, u1, s0, s1, n/2)
			}
			firsts[s0]++
		}
		if firsts[live] != firsts[ref] {
			t.Errorf("client %d: live went first %d times, ref %d times", k, firsts[live], firsts[ref])
		}
	}
	if _, s0 := turn(0, 0, 2); s0 == func() int { _, s := turn(0, 1, 2); return s }() {
		t.Error("clients 0 and 1 start on the same side")
	}
	for n := 0; n < 5; n++ {
		if u, s := turn(n, 1, 1); u != n || s != live {
			t.Errorf("one side: turn(%d) = %d,%d, want %d,live", n, u, s, n)
		}
	}
}

// The frozen reference imports nothing of the live tree, and
// lib_ref.go is lib_live.go over it.
func TestReferenceIsSelfContained(t *testing.T) {
	liveImport := regexp.MustCompile(`"repro(/internal/[^"]*|/cmd/[^"]*)?"`)
	err := filepath.WalkDir("ref", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := liveImport.Find(b); m != nil {
			t.Errorf("%s imports %s", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	body := func(file string) string { // the file from its first declaration on
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, _ := strings.Cut(string(b), "\n)\n")
		return rest
	}
	want := strings.NewReplacer("liveLib", "refLib", "liveDB", "refDB", "loadLive", "loadRef").Replace(body("lib_live.go"))
	if got := body("lib_ref.go"); got != want {
		t.Error("lib_ref.go is not lib_live.go with the names rewritten: run ref/freeze.sh")
	}
}
