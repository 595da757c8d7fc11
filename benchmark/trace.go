package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/fact"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/sym"
)

// span is one timed interval of the traced run: a session, a request,
// or one rung of the ladder. Spans of one op share its id as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the timed runs have tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// maxSpans bounds the trace file; later spans are counted, not kept.
const maxSpans = 200_000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// writeTrace stores the spans and the per-layer table under
// benchmark/out.
func writeTrace(e *env, cfg config, tr *tracer, res *result) error {
	table := make(map[string]any, len(res.metrics))
	for name, v := range res.metrics {
		table[name] = map[string]any{"value": v.Value, "unit": v.Unit, "samples": v.n, "what": v.note}
	}
	b, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"per_layer": table, "spans": tr.spans,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, "trace-"+cfg.workload+".json")
	res.infof("%d spans written to %s", len(tr.spans), path)
	return os.WriteFile(path, b, 0o644)
}

// tracePhase is how long each of the two halves of a traced run's
// workload phase lasts: one half untraced, one traced.
func tracePhase(cfg config) time.Duration {
	return time.Duration(max(4, int(cfg.seconds*0.2))) * sliceWidth
}

// setPhaseCounters reports the per-layer metrics that come from the
// daemon's /metrics deltas over the traced phase.
func setPhaseCounters(res *result, before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	sum := func(prefix string) float64 {
		total := 0.0
		for series := range after {
			if strings.HasPrefix(series, prefix) {
				total += delta(series)
			}
		}
		return total
	}
	reqs := sum("lsdb_http_requests_total")
	res.set("serve.bytes_out_per_req", delta("lsdb_http_bytes_out_total")/max(reqs, 1), "B", int(reqs), "lsdb_http_bytes_out_total per request over the traced phase")
	res.set("serve.rejected_429", sum("lsdb_http_rejected_total"), "count", 0, "admission rejections over the traced phase")
	res.set("browse.steps", delta(`lsdb_browse_steps_total{kind="neighborhood"}`), "count", 0, "lsdb_browse_steps_total over the traced phase")
	res.set("rules.rebuilds_full", delta(`lsdb_rules_rebuilds_total{kind="full"}`), "count", 0, "full closure builds over the traced phase")
	res.set("rules.rebuilds_incremental", delta(`lsdb_rules_rebuilds_total{kind="incremental"}`), "count", 0, "incremental closure folds over the traced phase")
	res.set("rules.rebuilds_delete", delta(`lsdb_rules_rebuilds_total{kind="delete"}`), "count", 0, "delete-and-rederive passes over the traced phase")
	res.set("search.builds", delta("lsdb_search_index_builds_total"), "count", 0, "search index builds over the traced phase")
	res.set("store.checkpoints", delta("lsdb_store_checkpoints_total"), "count", 0, "automatic checkpoints over the traced phase")
}

// setGenerator reports how much of the CPU the load generator itself
// used, and what recording spans cost.
func setGenerator(res *result, genCPU, sutCPU, untraced, traced float64) {
	res.set("gen.client_cpu_frac", genCPU/max(genCPU+sutCPU, 1e-9), "ratio", 0, "generator CPU over generator plus program CPU, traced phase")
	res.set("gen.units_per_s", untraced, "1/s", 0, "units (sessions, trails, facts) completed per second in the untraced half: sessions_per_s, ingest_facts_per_s")
	res.set("trace.overhead_frac", 1-traced/untraced, "ratio", 0, fmt.Sprintf("1 - traced/untraced units per second (%.1f against %.1f)", traced, untraced))
}

// traceBrowse is the traced run of browse_warm and browse_churn.
func traceBrowse(e *env, cfg config, churn bool, res *result, w *world, d *daemon, g *loadgen, writes []write) (*result, error) {
	tr := newTracer()
	g.golden = nil // the timed runs check the digests
	phase := tracePhase(cfg)
	wc := newClient(d.base)
	defer wc.close()
	admin := newClient(d.base)
	defer admin.close()
	var windows [][2]time.Duration
	var acks samples
	var applied []write // mutations the daemon has taken, in order
	half := func(writes []write) float64 {
		n0 := len(g.all[live])
		var cs *churnStats
		var wg sync.WaitGroup
		start := time.Now()
		if churn {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs = writer([]*client{wc}, writes, start, phase)[live]
			}()
		}
		g.closed(phase)
		wg.Wait()
		if cs != nil {
			applied = append(applied, writes[:cs.done]...)
			acks = append(acks, cs.ack...)
			for _, win := range cs.windows {
				off := start.Sub(g.start)
				windows = append(windows, [2]time.Duration{win[0] + off, win[1] + off})
			}
		}
		return float64(len(g.all[live])-n0) / phase.Seconds()
	}
	g.start = time.Now()
	perHalf := int(phase/writeEvery) + 1
	untraced := half(writes[:perHalf])

	before, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	gen0, sut0 := cpuSeconds(os.Getpid()), cpuSeconds(d.cmd.Process.Pid)
	for _, conns := range g.readers {
		conns[live].tr = tr
	}
	traced := half(writes[perHalf:])
	gen1, sut1 := cpuSeconds(os.Getpid()), cpuSeconds(d.cmd.Process.Pid)
	late, open50, open95 := 0.0, 0.0, 0.0
	if !churn {
		g.open(newOpenSchedule(cfg.seed, g.script, openRate), 2*sliceWidth)
		late = quantile(g.openLate.ms(), 0.95)
		open50, open95 = quantile(g.openLat.ms(), 0.5), quantile(g.openLat.ms(), 0.95)
	}
	for _, conns := range g.readers {
		conns[live].tr = nil
	}
	after, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	setPhaseCounters(res, before, after)
	setGenerator(res, gen1-gen0, sut1-sut0, untraced, traced)
	res.set("gen.late_p95_ms", late, "ms", len(g.openLate), "open loop: send time minus due time (0: the workload has no open loop)")
	res.set("serve.open_p50_ms", open50, "ms", len(g.openLat), fmt.Sprintf("open_p50_ms: open loop at %g req/s, timed from the due time (0: no open loop)", openRate))
	res.set("serve.open_p95_ms", open95, "ms", len(g.openLat), "open_p95_ms: the same requests' p95")
	res.set("serve.write_ack_p50_ms", quantileOr0(acks, 0.5), "ms", len(acks), "write_ack_p50_ms: /facts sent to durable ack (0: no writer)")
	inWin := overlapping(g.all[live], windows)
	res.set("serve.reader_p95_ms_in_write_window", quantileOr0(inWin, 0.95), "ms", len(inWin), "reader sessions in progress between a write's send and its visibility (0: no writer)")
	res.absorb(wc)
	res.infof("traced phase: walk session p50 %.4f ms over %d sessions", quantile(g.walk[live].ms(), 0.5), len(g.walk[live]))

	// The ladder: the script's first ops, rung by rung.
	db, err := loadLive(w)
	if err != nil {
		return nil, err
	}
	for _, wr := range applied { // bring the copy to the daemon's state
		if wr.Delete {
			db.Retract(wr.F.S, wr.F.R, wr.F.T)
		} else {
			db.MustAssert(wr.F.S, wr.F.R, wr.F.T)
		}
	}
	var ops []op
	for _, s := range g.script {
		if s.Kind != "batch" {
			ops = append(ops, s.Ops...)
		}
		if len(ops) >= max(int(ladderOps*cfg.scale), 24) {
			break
		}
	}
	if err := readLadder(tr, res, admin, db, ops); err != nil {
		return nil, err
	}
	if err := layerSuite(filepath.Join(e.runDir, "layers"), w, campusInputs(w, g.script), true, res); err != nil {
		return nil, err
	}
	for _, conns := range g.readers {
		res.absorb(conns[live])
	}
	res.absorb(admin)
	return res, writeTrace(e, cfg, tr, res)
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// ladderOps is how many of the script's ops the ladder replays.
const ladderOps = 240

// rungs are the ladder's levels, outermost first. A layer's self time
// is its rung minus the rung below.
var rungs = []string{"http", "mux", "facade", "module", "store"}

// readLadder executes each op back to back over loopback HTTP against
// the daemon, through the in-process mux on a recorder, as the facade
// call, as the module call under it, and as the store scans under
// that. Each rung runs three times and counts its least; every
// execution is a span whose parent is the op's span. The HTTP and
// mux answers must be the same bytes, and the facade's answer must
// have the size the HTTP answer states.
func readLadder(tr *tracer, res *result, c *client, db *lsdb.Database, ops []op) error {
	srv := serve.New()
	if _, err := srv.AddTenant(serve.DefaultTenant, db, serve.Quotas{}); err != nil {
		return err
	}
	mux := srv.Mux()
	db.ClosureLen()
	db.Searcher().Refresh()

	sums := make(map[string]map[string]float64) // op kind → rung → total µs
	counts := make(map[string]int)
	var netSelf, serveSelf []float64
	for _, o := range ops {
		parent := tr.begin("op:"+o.Kind, 0)
		least := make(map[string]time.Duration)
		rung := func(name string, f func()) {
			for i := 0; i < 3; i++ {
				d := tr.timed(name+":"+o.Kind, parent, f)
				if cur, ok := least[name]; !ok || d < cur {
					least[name] = d
				}
			}
		}
		var httpBody, muxBody []byte
		var size int
		rung("http", func() {
			status, body, err := c.do(http.MethodGet, o.path(), nil)
			c.check("ladder "+o.Kind+" "+o.Arg, status, body, err, o.Expect)
			httpBody = append(httpBody[:0], body...)
		})
		rung("mux", func() {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, o.path(), nil))
			muxBody = rec.Body.Bytes()
		})
		rung("facade", func() { size = facadeCall(db, o) })
		rung("module", func() { moduleCall(db, o) })
		rung("store", func() { storeCall(db, o) })
		tr.end(parent)

		c.attempted++
		if !bytes.Equal(httpBody, muxBody) {
			c.fail("ladder %s %s: the daemon and the in-process mux answer differently", o.Kind, o.Arg)
		} else if want := statedSize(o, httpBody); want != size {
			c.fail("ladder %s %s: HTTP answer states size %d, facade answer has %d", o.Kind, o.Arg, want, size)
		}
		if sums[o.Kind] == nil {
			sums[o.Kind] = make(map[string]float64)
		}
		for name, d := range least {
			sums[o.Kind][name] += float64(d.Nanoseconds()) / 1e3
		}
		counts[o.Kind]++
		netSelf = append(netSelf, float64((least["http"]-least["mux"]).Nanoseconds())/1e3)
		serveSelf = append(serveSelf, float64((least["mux"]-least["facade"]).Nanoseconds())/1e3)
	}
	res.set("net.self_us_per_req", mean(netSelf), "us", len(netSelf), "loopback HTTP round trip minus the same request on the in-process mux")
	res.set("serve.self_us_per_req", mean(serveSelf), "us", len(serveSelf), "in-process mux minus the facade call: routing, admission, JSON")
	kinds := make([]string, 0, len(sums))
	for k := range sums {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		line := fmt.Sprintf("ladder %-8s n=%-3d", k, counts[k])
		for _, r := range rungs {
			line += fmt.Sprintf("  %s %.1f us", r, sums[k][r]/float64(counts[k]))
		}
		res.infof("%s", line)
	}
	// One walk session is a search, three navigates, a try and a query.
	walk := 0.0
	for k, n := range map[string]float64{"search": 1, "navigate": 3, "try": 1, "query": 1} {
		if counts[k] > 0 {
			walk += n * sums[k]["http"] / float64(counts[k])
		}
	}
	res.infof("ladder: one walk session's six requests take %.4f ms on the http rung, one client; the rungs' self times add up to it by construction", walk/1000)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// facadeCall makes the op as a call on lsdb.Database and returns the
// size of the answer: the number the HTTP body states as total,
// tuples or waves.
func facadeCall(db *lsdb.Database, o op) int {
	switch o.Kind {
	case "search":
		return db.Search(o.Arg, lsdb.SearchOptions{K: 5, Offset: o.Limit}).Total
	case "navigate":
		return db.Navigate(o.Arg).Degree()
	case "try":
		return len(db.Try(o.Arg))
	case "query":
		rows, err := db.Query(o.Arg)
		if err != nil {
			return -1
		}
		return len(rows.Tuples)
	case "probe":
		out, err := db.Probe(o.Arg)
		if err != nil {
			return -1
		}
		return len(out.Waves)
	}
	return -1
}

// moduleCall makes the op as calls on the module that does the work.
func moduleCall(db *lsdb.Database, o op) {
	switch o.Kind {
	case "search":
		db.Searcher().Search(o.Arg, lsdb.SearchOptions{K: 5, Offset: o.Limit})
	case "navigate":
		db.Browser().Neighborhood(db.Entity(o.Arg))
	case "try":
		ops.Try(db.Engine(), db.Entity(o.Arg))
	case "query":
		if q, err := db.Parse(o.Arg); err == nil {
			db.Eval(q)
		}
	case "probe":
		if q, err := db.Parse(o.Arg); err == nil {
			db.Prober().Probe(q)
		}
	}
}

// storeCall makes the scans of the sealed closure a navigation step
// comes down to. The other ops' store work is inside their module's
// join or ranking loop and has no call of its own to time.
func storeCall(db *lsdb.Database, o op) {
	if o.Kind != "navigate" && o.Kind != "try" {
		return
	}
	id := db.Entity(o.Arg)
	n := 0
	count := func(fact.Fact) bool { n++; return true }
	c := db.Engine().Closure()
	c.Match(id, sym.None, sym.None, count)
	c.Match(sym.None, sym.None, id, count)
	sink += n
}

// statedSize reads the answer's size out of an HTTP body.
func statedSize(o op, body []byte) int {
	var v struct {
		Total  *int       `json:"total"`
		Tuples [][]string `json:"tuples"`
		Waves  *int       `json:"waves"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return -2
	}
	switch {
	case o.Kind == "probe" && v.Waves != nil:
		return *v.Waves
	case o.Kind == "query":
		return len(v.Tuples)
	case v.Total != nil:
		return *v.Total
	}
	return -2
}

// traceInfer is the traced run of infer_ondemand: one round untraced,
// one traced, then the layer suite. There is no HTTP anywhere in this
// workload, so the net and serve layers report 0.
func traceInfer(e *env, cfg config, res *result, w *world, trails []trail) (*result, error) {
	tr := newTracer()
	round := func(t *tracer) (float64, error) {
		db, err := loadLive(w)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for pass := 0; pass < 1+warmPasses; pass++ {
			for i, trl := range trails {
				b := browse.NewOnDemand(db.Engine(), nil, inferDepth)
				id := t.begin(fmt.Sprintf("trail:%d", i), 0)
				for _, name := range trl {
					t.timed("neighborhood", id, func() { b.Neighborhood(db.Entity(name)) })
				}
				t.end(id)
				res.attempted += len(trl)
			}
		}
		return float64((1+warmPasses)*len(trails)) / time.Since(t0).Seconds(), nil
	}
	untraced, err := round(nil)
	if err != nil {
		return nil, err
	}
	gen0 := cpuSeconds(os.Getpid())
	traced, err := round(tr)
	if err != nil {
		return nil, err
	}
	// The generator and the program are one process here: the share is
	// not separable, and is reported as 0.
	setGenerator(res, 0, cpuSeconds(os.Getpid())-gen0, untraced, traced)
	setPhaseCounters(res, nil, nil)
	res.set("gen.late_p95_ms", 0, "ms", 0, "open loop: send time minus due time (0: the workload has no open loop)")
	res.set("serve.reader_p95_ms_in_write_window", 0, "ms", 0, "reader sessions in progress between a write's send and its visibility (0: no writer)")
	for _, d := range spec.PerLayer {
		switch d.Name {
		case "net.self_us_per_req", "serve.self_us_per_req", "serve.open_p50_ms", "serve.open_p95_ms", "serve.write_ack_p50_ms":
			res.set(d.Name, 0, d.Unit, 0, "0: the workload makes no HTTP request")
		}
	}
	if err := layerSuite(filepath.Join(e.runDir, "layers"), w, graphInputs(w, trails), false, res); err != nil {
		return nil, err
	}
	return res, writeTrace(e, cfg, tr, res)
}

// traceIngest is the traced run of ingest_recover: post facts for one
// untraced and one traced half, ladder single writes through the
// rungs, then the layer suite.
func traceIngest(e *env, cfg config, res *result, w *world, d *daemon) (*result, error) {
	tr := newTracer()
	phase := tracePhase(cfg)
	clients := make([]*client, cfg.clients)
	for i := range clients {
		clients[i] = newClient(d.base)
		defer clients[i].close()
	}
	admin := newClient(d.base)
	defer admin.close()
	next := 0
	var acks samples
	half := func() float64 {
		var wg sync.WaitGroup
		var mu sync.Mutex
		done := 0
		deadline := time.Now().Add(phase)
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(w.Facts) {
						return
					}
					id := c.tr.begin("http:facts", 0)
					t0 := time.Now()
					status, body, err := c.do(http.MethodPost, "/facts", factBody(w.Facts[i]))
					took := time.Since(t0)
					c.tr.end(id)
					c.check("ingest", status, body, err, []string{`"lsn":`})
					mu.Lock()
					done++
					acks.add(took)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return float64(done) / phase.Seconds()
	}
	untraced := half()
	before, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	gen0, sut0 := cpuSeconds(os.Getpid()), cpuSeconds(d.cmd.Process.Pid)
	for _, c := range clients {
		c.tr = tr
	}
	traced := half()
	gen1, sut1 := cpuSeconds(os.Getpid()), cpuSeconds(d.cmd.Process.Pid)
	after, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	setPhaseCounters(res, before, after)
	setGenerator(res, gen1-gen0, sut1-sut0, untraced, traced)
	res.set("gen.late_p95_ms", 0, "ms", 0, "open loop: send time minus due time (0: the workload has no open loop)")
	res.set("serve.reader_p95_ms_in_write_window", 0, "ms", 0, "reader sessions in progress between a write's send and its visibility (0: no reader)")
	res.set("serve.open_p50_ms", 0, "ms", 0, "0: the workload has no open loop")
	res.set("serve.open_p95_ms", 0, "ms", 0, "0: the workload has no open loop")
	res.set("serve.write_ack_p50_ms", quantileOr0(acks, 0.5), "ms", len(acks), "write_ack_p50_ms: POST /facts sent to durable ack, both halves of the phase")

	// The write ladder: fresh, identically shaped facts per rung.
	dir := filepath.Join(e.runDir, "ladder")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, "ladder.log"), SyncPolicy: lsdb.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	srv := serve.New()
	if _, err := srv.AddTenant(serve.DefaultTenant, db, serve.Quotas{}); err != nil {
		return nil, err
	}
	mux := srv.Mux()
	var httpUS, muxUS, facadeUS, storeUS []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i := 0; i < max(int(ladderOps*cfg.scale), 24); i++ {
		f := func(rung string) fact3 {
			return fact3{fmt.Sprintf("LADDER-%s-%d", rung, i), "FRIEND-OF", "LADDER-SINK"}
		}
		parent := tr.begin("op:facts", 0)
		httpUS = append(httpUS, us(tr.timed("http:facts", parent, func() {
			status, body, err := admin.do(http.MethodPost, "/facts", factBody(f("HTTP")))
			admin.check("ladder write", status, body, err, []string{`"lsn":`})
		})))
		muxUS = append(muxUS, us(tr.timed("mux:facts", parent, func() {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/facts", bytes.NewReader(factBody(f("MUX")))))
			admin.attempted++
			if rec.Code != http.StatusOK {
				admin.fail("ladder write on the in-process mux: status %d", rec.Code)
			}
		})))
		facadeUS = append(facadeUS, us(tr.timed("facade:facts", parent, func() {
			g := f("FACADE")
			db.MustAssert(g.S, g.R, g.T)
		})))
		g := f("STORE")
		sf := db.Universe().NewFact(g.S, g.R, g.T)
		storeUS = append(storeUS, us(tr.timed("store:facts", parent, func() {
			if _, err := db.Store().InsertLogged(sf); err != nil {
				admin.fail("ladder InsertLogged: %v", err)
			}
		})))
		tr.end(parent)
	}
	res.set("net.self_us_per_req", median(httpUS)-median(muxUS), "us", len(httpUS), "loopback POST /facts minus the same write on the in-process mux (medians)")
	res.set("serve.self_us_per_req", median(muxUS)-median(facadeUS), "us", len(muxUS), "in-process mux minus Database.Assert (medians)")
	res.infof("write ladder medians: http %.1f us, mux %.1f us, facade %.1f us, store %.1f us",
		median(httpUS), median(muxUS), median(facadeUS), median(storeUS))
	if err := layerSuite(filepath.Join(e.runDir, "layers"), w, campusInputs(w, browseScript(cfg.seed, w, 256)), true, res); err != nil {
		return nil, err
	}
	for _, c := range clients {
		res.absorb(c)
	}
	res.absorb(admin)
	return res, writeTrace(e, cfg, tr, res)
}
