package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// browse_warm alternates closed-loop and open-loop segments of this
// many slices until the run's seconds are used up.
const (
	closedSlices = 4
	openSlices   = 1
)

// Frozen sizes of the browse workloads, set once at the commit that
// added the benchmark (2-core reference box).
var (
	// sizeS is world S: 9.2k stored facts, closure 47k.
	sizeS = campusSize{Students: 700, Faculty: 60, Courses: 120, Depts: 12, EnrolPerStudent: 2}
	// browseSessions is the length of the session script; clients
	// share it round-robin and loop over it until the phase ends.
	browseSessions = 1024
	// openRate is the open-loop arrival rate in requests per second:
	// about half of what the closed loop completes against one daemon at
	// this commit (≈430 sessions/s × 5.6 requests).
	openRate = 1200.0
	// writeEvery is the churn writer's fixed schedule. The daemons
	// take turns, so each sees a write every other slot.
	writeEvery = 250 * time.Millisecond
)

// scaled applies the test-only world-size multiplier.
func (sz campusSize) scaled(f float64) campusSize {
	sc := func(n int) int { return max(int(float64(n)*f), 4) }
	return campusSize{sc(sz.Students), sc(sz.Faculty), sc(sz.Courses), max(int(float64(sz.Depts)*f), 2), sz.EnrolPerStudent}
}

// campusSetup is one set-up of one side's daemon over a campus world:
// generate the world, write it as a WAL with that side's library,
// start that side's lsdbd on it, and warm it (the first /navigate
// materializes the closure, the first /search builds the index). It
// returns the running daemon and how long all of that took.
func campusSetup(e *env, side int, seed uint64, sz campusSize, tag string) (*world, *daemon, float64, error) {
	start := time.Now()
	w := campus(seed, sz)
	dir := filepath.Join(e.runDir, tag+"-"+sideName[side])
	os.RemoveAll(dir)
	if err := libraries[side].writeWAL(dir, w); err != nil {
		return nil, nil, 0, fmt.Errorf("write WAL: %w", err)
	}
	d, err := e.startDaemon(side, "-data", dir)
	if err != nil {
		return nil, nil, 0, err
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	for _, path := range []string{"/healthz", "/navigate?entity=" + w.Hub, "/search?q=" + w.Hub} {
		if _, err := d.waitReady(hc, path, 60*time.Second); err != nil {
			d.kill()
			return nil, nil, 0, err
		}
	}
	return w, d, time.Since(start).Seconds(), nil
}

// turn says which side step n of a client's loop goes to when it
// drives both: every unit of work is done on one side and then on the
// other, and odd-numbered units start with the reference, so that
// neither side is always the one that goes first. k staggers the
// clients, so that at any moment they are on different sides.
func turn(n, k, sides int) (unit, side int) {
	if sides == 1 {
		return n, live
	}
	unit = n / 2
	return unit, (n + unit + k) % 2
}

// loadgen is the set of reader clients and what they have recorded.
// Each reader has one keep-alive connection to every daemon the run
// drives (both sides in a timed run, the live one alone in a traced
// run) and plays each session on each of them in turn.
type loadgen struct {
	readers [][]*client // [reader][side]
	sides   int
	script  []session
	// golden[i], when non-empty, is the digest session i must produce
	// on either side; an empty entry is filled by the first answer and
	// checked by the later ones. nil switches the check off (answers
	// change under writes).
	golden []string
	mu     sync.Mutex // guards golden
	cursor []int      // per reader: how many steps it has taken
	start  time.Time  // start of the run; event times count from here

	// walk, batch and probe are sessions by kind and side; probeReq is
	// the /probe request of each probe session; all is every session.
	walk, batch, probe, probeReq, all [2]events
	// open-loop latency from the due time, and how late each send was
	// (live side only)
	openLat, openLate events
}

// newLoadgen makes n readers of the given daemons, one per side.
func newLoadgen(ds []*daemon, n int, script []session, golden []string) *loadgen {
	g := &loadgen{sides: len(ds), script: script, golden: golden, cursor: make([]int, n)}
	for i := 0; i < n; i++ {
		var conns []*client
		for _, d := range ds {
			conns = append(conns, newClient(d.base))
		}
		g.readers = append(g.readers, conns)
	}
	return g
}

func (g *loadgen) close() {
	for _, conns := range g.readers {
		for _, c := range conns {
			c.close()
		}
	}
}

// closed has each reader replay its share of the script, one request
// at a time, for dur. Reader k plays sessions k, k+C, k+2C, … and
// wraps around; each session on every side before the next.
func (g *loadgen) closed(dur time.Duration) {
	type rec struct{ walk, batch, probe, probeReq, all [2]events }
	recs := make([]rec, len(g.readers))
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for k, conns := range g.readers {
		wg.Add(1)
		go func(k int, conns []*client) {
			defer wg.Done()
			r := &recs[k]
			for time.Now().Before(deadline) {
				unit, side := turn(g.cursor[k], k, g.sides)
				g.cursor[k]++
				idx := (k + unit*len(g.readers)) % len(g.script)
				s, c := g.script[idx], conns[side]
				t0 := time.Now()
				digest, ok, probeT := c.runSession(s)
				t1 := time.Now()
				ev := event{start: t0.Sub(g.start), end: t1.Sub(g.start), ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6}
				r.all[side] = append(r.all[side], ev)
				switch s.Kind {
				case "walk":
					r.walk[side] = append(r.walk[side], ev)
				case "batch":
					r.batch[side] = append(r.batch[side], ev)
				case "probe":
					r.probe[side] = append(r.probe[side], ev)
					ev.ms = float64(probeT.Nanoseconds()) / 1e6
					r.probeReq[side] = append(r.probeReq[side], ev)
				}
				if ok && g.golden != nil {
					g.mu.Lock()
					switch want := g.golden[idx]; {
					case want == "":
						g.golden[idx] = digest
					case want != digest:
						c.fail("session %d (%s, %s side): answer digest %s, want %s", idx, s.Kind, sideName[side], digest, want)
					}
					g.mu.Unlock()
				}
			}
		}(k, conns)
	}
	wg.Wait()
	for _, r := range recs {
		for side := 0; side < g.sides; side++ {
			g.walk[side] = append(g.walk[side], r.walk[side]...)
			g.batch[side] = append(g.batch[side], r.batch[side]...)
			g.probe[side] = append(g.probe[side], r.probe[side]...)
			g.probeReq[side] = append(g.probeReq[side], r.probeReq[side]...)
			g.all[side] = append(g.all[side], r.all[side]...)
		}
	}
}

// openSchedule is the open loop's arrivals: a seeded Poisson process
// of single /navigate and /query requests taken from the script.
type openSchedule struct {
	ops  []op
	r    *rng
	rate float64
	next int // arrivals handed out so far, over all segments
}

func newOpenSchedule(seed uint64, script []session, rate float64) *openSchedule {
	o := &openSchedule{r: newRNG(seed, "open"), rate: rate}
	for _, s := range script {
		for _, p := range s.Ops {
			if (p.Kind == "navigate" || p.Kind == "query") && p.Limit == 0 {
				o.ops = append(o.ops, p)
			}
		}
	}
	return o
}

// open sends the schedule's next dur of arrivals to the live daemon,
// whatever its pace, and times each from the moment it was due. The
// readers take arrivals in order, so a stall delays everything
// scheduled behind it.
func (g *loadgen) open(o *openSchedule, dur time.Duration) {
	var due []time.Duration
	for t := o.r.exp(1 / o.rate); t < dur.Seconds(); t += o.r.exp(1 / o.rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	first := o.next
	o.next += len(due)
	lats := make([]events, len(g.readers))
	lates := make([]events, len(g.readers))
	var next atomic.Int64
	var wg sync.WaitGroup
	segStart := time.Now()
	for k, conns := range g.readers {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := segStart.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				p := o.ops[(first+i)%len(o.ops)]
				status, body, err := c.do(http.MethodGet, p.path(), nil)
				done := time.Now()
				c.check("open "+p.Kind+" "+p.Arg, status, body, err, p.Expect)
				ev := event{start: at.Sub(g.start), end: done.Sub(g.start), ms: float64(done.Sub(at).Nanoseconds()) / 1e6}
				lats[k] = append(lats[k], ev)
				ev.ms = float64(sent.Sub(at).Nanoseconds()) / 1e6
				lates[k] = append(lates[k], ev)
			}
		}(k, conns[live])
	}
	wg.Wait()
	for k := range g.readers {
		g.openLat = append(g.openLat, lats[k]...)
		g.openLate = append(g.openLate, lates[k]...)
	}
}

var lsnRE = regexp.MustCompile(`"lsn":(\d+)`)

// churnStats is what browse_churn's writer records about one side.
type churnStats struct {
	done         int // leading script entries sent
	ack, visible samples
	windows      [][2]time.Duration // write sent → write visible, relative to phase start
}

// writer applies the churn script on its fixed schedule until the
// deadline, to every daemon it has a connection to (cs, by side): the
// daemons take turns at the schedule's slots, and each gets every
// mutation. A step sends the mutation, then reads the entity's table
// with min_lsn until it reflects the mutation. An asserted fact must
// show; a retracted one must be gone.
func writer(cs []*client, script []write, start time.Time, dur time.Duration) []*churnStats {
	sts := make([]*churnStats, len(cs))
	for side := range sts {
		sts[side] = &churnStats{}
	}
	for n := 0; ; n++ {
		i, side := turn(n, 0, len(cs))
		at := start.Add(time.Duration(n) * writeEvery)
		if i >= len(script) || at.Sub(start) >= dur {
			break
		}
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		c, st, wr := cs[side], sts[side], script[i]
		st.done = i + 1
		sent := time.Now()
		var status int
		var body []byte
		var err error
		if wr.Delete {
			status, body, err = c.do(http.MethodDelete, "/facts?"+factQuery(wr.F), nil)
		} else {
			status, body, err = c.do(http.MethodPost, "/facts", factBody(wr.F))
		}
		acked := time.Now()
		expect := []string{`"lsn":`}
		if wr.Delete {
			expect = append(expect, `"retracted":true`)
		}
		if !c.check("write", status, body, err, expect) {
			continue
		}
		st.ack.add(acked.Sub(sent))
		m := lsnRE.FindSubmatch(body)
		c.attempted++ // the read-after-write
		if m == nil {
			c.fail("write %d: ack carries no lsn: %.200s", i, body)
			continue
		}
		path := "/navigate?entity=" + wr.F.S + "&min_lsn=" + string(m[1])
		seen := false
		for try := 0; try < 100 && !seen; try++ {
			status, body, err = c.do(http.MethodGet, path, nil)
			if err != nil || status != http.StatusOK {
				break
			}
			seen = bytes.Contains(body, []byte(quoted(wr.F.T))) != wr.Delete
		}
		if !seen {
			c.fail("write %d (%v delete=%v) not reflected by /navigate: status %d err %v", i, wr.F, wr.Delete, status, err)
			continue
		}
		vis := time.Now()
		st.visible.add(vis.Sub(sent))
		st.windows = append(st.windows, [2]time.Duration{sent.Sub(start), vis.Sub(start)})
	}
	return sts
}

func factBody(f fact3) []byte {
	return []byte(fmt.Sprintf(`{"s":%q,"r":%q,"t":%q}`, f.S, f.R, f.T))
}

func factQuery(f fact3) string {
	return "s=" + f.S + "&r=" + f.R + "&t=" + f.T
}

// overlapping returns the latencies, in ms, of the events that were
// in progress during any window.
func overlapping(evs events, windows [][2]time.Duration) []float64 {
	var out []float64
	for _, ev := range evs {
		for _, w := range windows {
			if ev.start < w[1] && w[0] < ev.end {
				out = append(out, ev.ms)
				break
			}
		}
	}
	return out
}

// stallPerWrite returns, for each write window that any event was in
// progress during, the latency in ms of the slowest such event.
func stallPerWrite(evs events, windows [][2]time.Duration) []float64 {
	var out []float64
	for _, w := range windows {
		worst := 0.0
		for _, ev := range evs {
			if ev.start < w[1] && w[0] < ev.end {
				worst = max(worst, ev.ms)
			}
		}
		if worst > 0 {
			out = append(out, worst)
		}
	}
	return out
}

// scrape reads the daemon's /metrics into a map from series (name
// with its label set, as exposed) to value.
func scrape(c *client) (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(string(line[i+1:]), 64); err == nil {
			out[string(line[:i])] = v
		}
	}
	return out, nil
}

// runBrowse is workloads browse_warm and browse_churn: walk and probe
// sessions over HTTP against lsdbd children serving world S, the live
// build and the reference build in turn. With churn, one client is a
// writer on a fixed schedule and the others read; without, every
// client reads, and closed-loop segments alternate with open-loop
// ones. A traced run drives the live daemon alone.
func runBrowse(e *env, cfg config, churn bool) (*result, error) {
	res := newResult(cfg.workload)
	sz := sizeS.scaled(cfg.scale)
	sides := 2
	if cfg.trace {
		sides = 1
	}
	// Set up several times for the median; the last daemons stay up.
	var w *world
	ds := make([]*daemon, sides)
	var setups [2][]float64
	defer func() {
		for _, d := range ds {
			d.kill()
		}
	}()
	for n := 0; n < cfg.setups*sides; n++ {
		_, side := turn(n, 0, sides)
		ds[side].kill()
		var secs float64
		var err error
		if w, ds[side], secs, err = campusSetup(e, side, cfg.seed, sz, "data-"+cfg.workload); err != nil {
			return nil, err
		}
		setups[side] = append(setups[side], secs)
	}

	script := browseScript(cfg.seed, w, browseSessions)
	// Enough writes for the timed run, or for both halves of a traced one.
	nWrites := int(max(cfg.seconds, 2*tracePhase(cfg).Seconds())/writeEvery.Seconds()) + 2
	writes := churnScript(cfg.seed, w, nWrites)
	shas := map[string]string{"world": w.sha256(), "script": scriptSHA(script)}
	if churn {
		shas["script"] = scriptSHA([]any{script, writes})
	}
	if err := checkPins(cfg, shas, res); err != nil {
		return nil, err
	}

	readers := cfg.clients
	if churn {
		readers = max(1, cfg.clients-1)
	}
	var golden []string
	if !churn {
		golden = loadGolden(cfg, len(script))
	}
	g := newLoadgen(ds, readers, script, golden)
	defer g.close()
	if cfg.trace {
		return traceBrowse(e, cfg, churn, res, w, ds[live], g, writes)
	}

	total := cfg.duration()
	g.start = time.Now()
	var cs []*churnStats
	wcs := []*client{newClient(ds[live].base), newClient(ds[ref].base)}
	defer wcs[live].close()
	defer wcs[ref].close()
	if churn {
		// One writer beside the readers for the whole run.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs = writer(wcs, writes, g.start, total)
		}()
		g.closed(total)
		wg.Wait()
	} else {
		// The closed and the open loop alternate, so that each samples
		// the whole length of the run.
		sched := newOpenSchedule(cfg.seed, script, openRate)
		for left := total; left > 0; {
			c := min(left, closedSlices*sliceWidth)
			g.closed(c)
			left -= c
			o := min(left, openSlices*sliceWidth)
			if o > 0 {
				g.open(sched, o)
				left -= o
			}
		}
	}
	if *updateGolden && !churn {
		if err := saveGolden(e, cfg, golden); err != nil {
			return nil, err
		}
	}

	p := func(evs [2]events, q float64) (float64, float64) {
		return quantile(evs[live].ms(), q), quantile(evs[ref].ms(), q)
	}
	res.against("setup_s", "s", median(setups[live]), median(setups[ref]), len(setups[live]),
		"generate world S, write WAL, start lsdbd, materialize closure, build search index")
	l, r := p(g.walk, 0.5)
	res.against("unit_p50_ms", "ms", l, r, len(g.walk[live]), "session_p50_ms: one walk session, six requests")
	res.infof("sessions_per_s %.4f: walk, batched and probe sessions completed per second on both daemons together (n=%d)",
		float64(len(g.all[live])+len(g.all[ref]))/total.Seconds(), len(g.all[live])+len(g.all[ref]))
	res.infof("live daemon: batched walk p50 %.4f ms (n=%d); probe session p50 %.4f ms (n=%d)",
		quantile(g.batch[live].ms(), 0.5), len(g.batch[live]), quantile(g.probe[live].ms(), 0.5), len(g.probe[live]))
	if churn {
		res.absorb(wcs[live])
		res.absorb(wcs[ref])
		// A percentile of all sessions is no tail here: the sessions that
		// wait for a write's closure rebuild are 2 to 8 in 100, depending
		// on how many the reader completes between two writes, so a p95 or
		// p98 sits now inside that population and now outside it (20 ms
		// or 90 ms from one run to the next). The stall is taken per write
		// instead: the slowest reader session in progress while the write
		// became visible.
		var stalls [2][]float64
		for side := range stalls {
			stalls[side] = stallPerWrite(g.all[side], cs[side].windows)
		}
		res.against("unit_tail_ms", "ms", median(stalls[live]), median(stalls[ref]), len(stalls[live]),
			"reader_stall_p50_ms: slowest reader session in progress on a daemon while a write to it became visible, median over writes")
		hp := highestPercentile(len(g.walk[live]))
		res.infof("live daemon: walk sessions p95 %.4f ms, p%g %.4f ms (n=%d)", quantile(g.walk[live].ms(), 0.95), hp*100, quantile(g.walk[live].ms(), hp), len(g.walk[live]))
		res.against("slow_p50_ms", "ms", quantile(cs[live].visible, 0.5), quantile(cs[ref].visible, 0.5), len(cs[live].visible),
			"read_after_write_p50_ms: write sent to first /navigate that reflects it")
		res.infof("live daemon: write_ack_p50_ms %.4f ms: /facts sent to durable ack (n=%d)", quantile(cs[live].ack, 0.5), len(cs[live].ack))
		hp = highestPercentile(len(cs[live].visible))
		res.infof("live daemon: read_after_write p%g %.4f ms (highest percentile %d writes support)", hp*100, quantile(cs[live].visible, hp), len(cs[live].visible))
	} else {
		l, r = p(g.walk, 0.95)
		res.against("unit_tail_ms", "ms", l, r, len(g.walk[live]), "session_p95_ms")
		l, r = p(g.probeReq, 0.5)
		res.against("slow_p50_ms", "ms", l, r, len(g.probeReq[live]), "probe_wave_p50_ms: one /probe that runs two retraction waves")
		res.infof("live daemon, open loop at %g req/s, timed from the due time: open_p50_ms %.4f open_p95_ms %.4f (n=%d); generator lateness p95 %.4f ms",
			openRate, quantile(g.openLat.ms(), 0.5), quantile(g.openLat.ms(), 0.95), len(g.openLat), quantile(g.openLate.ms(), 0.95))
	}
	for _, conns := range g.readers {
		for _, c := range conns {
			res.absorb(c)
		}
	}
	rss, err := rssPeakMB(ds[live].cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss, "MB", 0, "VmHWM of the live lsdbd child")
	if len(g.walk[live]) < minBeyond*20 && cfg.scale == 1 { // ten samples beyond a p95
		res.fail(1, fmt.Errorf("%d walk sessions, too few for the tail percentile", len(g.walk[live])))
	}
	return res, nil
}
