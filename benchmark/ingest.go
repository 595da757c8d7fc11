package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Frozen sizes of workload ingest_recover.
var (
	// sizeM is world M: ≈26k facts, closure ≈130k.
	sizeM = campusSize{Students: 2000, Faculty: 160, Courses: 260, Depts: 16, EnrolPerStudent: 2}
	// ingestFacts of world M go into each daemon in a run of
	// run_seconds, which takes 11 to 19 s on the reference box; the
	// restarts take the rest. Another --seconds ingests in proportion.
	// A run whose ingest is not done when its seconds are up (a slow
	// disk: 1.4 ms a write instead of 0.65 has been seen for a minute)
	// stops there and restarts on what it has.
	ingestFacts = 16000.0
	// checkpointEvery arms the daemon's automatic checkpoints. They do
	// not fire at this commit: the store checkpoints only once the log
	// holds twice the live fact count, which an insert-only ingest
	// never reaches (see README.md). store.checkpoints reports it.
	checkpointEvery = 5000
	// recoveries is how many times each daemon is killed and restarted
	// on the same files; the run reports the median restart.
	recoveries = 8
)

// runIngest is workload ingest_recover: an empty lsdbd with a log, a
// snapshot, fsync on every commit and automatic checkpoints takes the
// first ingestFacts facts of world M one per request from C clients;
// then it is killed with SIGKILL and restarted on the same files, and
// the time from exec to the first table and the first search result
// is measured. Every acknowledged fact must be there
// afterwards. All of it is done to a live daemon and a reference
// daemon in turn, request by request and restart by restart, so both
// hold the same facts.
func runIngest(e *env, cfg config) (*result, error) {
	res := newResult(cfg.workload)
	sz := sizeM.scaled(cfg.scale)
	every := max(int(float64(checkpointEvery)*cfg.scale), 50)
	sides := 2
	if cfg.trace {
		sides = 1
	}
	dirs := make([]string, sides)
	args := make([][]string, sides)
	for side := range dirs {
		dirs[side] = filepath.Join(e.runDir, "data-ingest-"+sideName[side])
		args[side] = []string{
			"-log", filepath.Join(dirs[side], "db.log"), "-snapshot", filepath.Join(dirs[side], "db.snapshot"),
			"-sync", "always", "-checkpoint", fmt.Sprint(every),
		}
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()

	var w *world
	ds := make([]*daemon, sides)
	defer func() {
		for _, d := range ds {
			d.kill()
		}
	}()
	var setups [2][]float64
	for n := 0; n < 3*cfg.setups*sides; n++ { // a set-up is ≈20 ms: repeat it more often
		_, side := turn(n, 0, sides)
		ds[side].kill()
		start := time.Now()
		w = campus(cfg.seed, sz)
		os.RemoveAll(dirs[side])
		if err := os.MkdirAll(dirs[side], 0o755); err != nil {
			return nil, err
		}
		var err error
		if ds[side], err = e.startDaemon(side, args[side]...); err != nil {
			return nil, err
		}
		if _, err := ds[side].waitReady(hc, "/healthz", 60*time.Second); err != nil {
			return nil, err
		}
		setups[side] = append(setups[side], time.Since(start).Seconds())
	}
	// The ingest order is the generator's: the schema, the departments,
	// courses and faculty, then one student after the other. A prefix of
	// it is a campus with fewer students.
	order := w.Facts[:min(len(w.Facts), int(ingestFacts*cfg.scale*cfg.seconds/float64(spec.RunSeconds)))]
	if err := checkPins(cfg, map[string]string{"world": w.sha256(), "script": scriptSHA(w.Facts)}, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceIngest(e, cfg, res, w, ds[live])
	}

	// Ingest: client k posts facts k, k+C, k+2C, … of the order, each to
	// one daemon and then to the other.
	clients := make([][2]*client, cfg.clients)
	acks := make([][2]samples, len(clients))
	posted := make([]int, len(clients)) // facts client k has sent to both daemons
	for k := range clients {
		for side := range ds {
			clients[k][side] = newClient(ds[side].base)
			defer clients[k][side].close()
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := range clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; ; n++ {
				unit, side := turn(n, k, 2)
				i := k + unit*len(clients)
				if n%2 == 0 && (i >= len(order) || time.Now().After(deadline)) {
					return
				}
				c := clients[k][side]
				t0 := time.Now()
				status, body, err := c.do(http.MethodPost, "/facts", factBody(order[i]))
				took := time.Since(t0)
				if c.check("ingest", status, body, err, []string{`"lsn":`}) {
					acks[k][side].add(took)
				}
				posted[k] = (n + 1) / 2
			}
		}(k)
	}
	wg.Wait()
	ingestWall := time.Since(start)
	var sent []fact3
	for k, units := range posted {
		for u := 0; u < units; u++ {
			sent = append(sent, order[k+u*len(clients)])
		}
	}
	var ack [2]samples
	for k := range clients {
		for side, c := range clients[k] {
			ack[side] = append(ack[side], acks[k][side]...)
			res.absorb(c)
			c.close()
		}
	}
	admin := newClient(ds[live].base)
	counters, err := scrape(admin)
	admin.close()
	if err != nil {
		return nil, err
	}
	rssIngest, err := rssPeakMB(ds[live].cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	// Crash and recover, several times over the same files, the two
	// daemons in turn.
	var recov, toNavigate [2][]float64
	rssRecover := 0.0
	for n := 0; n < recoveries*2; n++ {
		_, side := turn(n, 0, 2)
		ds[side].kill()
		if ds[side], err = e.startDaemon(side, args[side]...); err != nil {
			return nil, err
		}
		d := ds[side]
		nav, err := d.waitReady(hc, "/navigate?entity="+w.Hub, 120*time.Second)
		if err != nil {
			return nil, err
		}
		srch, err := d.waitReady(hc, "/search?q="+w.Hub, 120*time.Second)
		if err != nil {
			return nil, err
		}
		toNavigate[side] = append(toNavigate[side], nav.Sub(d.execAt).Seconds())
		recov[side] = append(recov[side], srch.Sub(d.execAt).Seconds())
		if len(recov[side]) == 1 {
			lost, err := lostFacts(newClient(d.base), sent)
			if err != nil {
				return nil, err
			}
			res.attempted += len(sent)
			if lost > 0 {
				res.fail(lost, sideErr(side, fmt.Errorf("%d acknowledged facts are missing after SIGKILL and restart", lost)))
			}
			res.infof("%s daemon: acked_lost %d of %d acknowledged facts", sideName[side], lost, len(sent))
		}
		if side == live {
			rss, err := rssPeakMB(d.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			rssRecover = max(rssRecover, rss)
		}
	}

	res.against("setup_s", "s", median(setups[live]), median(setups[ref]), len(setups[live]),
		"generate world M, start an empty lsdbd with log, snapshot and checkpoints")
	res.against("unit_p50_ms", "ms", quantile(ack[live], 0.5), quantile(ack[ref], 0.5), len(ack[live]),
		"write_ack_p50_ms: POST /facts sent to durable ack, -sync always")
	// A p90, not the p95 the other workloads report: see README.md.
	res.against("unit_tail_ms", "ms", quantile(ack[live], 0.90), quantile(ack[ref], 0.90), len(ack[live]), "write_ack_p90_ms")
	res.against("slow_p50_ms", "ms", median(recov[live])*1000, median(recov[ref])*1000, len(recov[live]),
		"recovery_s in ms: exec of the restarted daemon to first 200 from /navigate and then /search, median of the restarts")
	res.infof("ingest_facts_per_s %.4f: facts acknowledged per second by the two daemons together (%d of world M's %d facts each in %.3f s)",
		float64(len(ack[live])+len(ack[ref]))/ingestWall.Seconds(), len(ack[live]), len(w.Facts), ingestWall.Seconds())
	res.infof("live daemon: write acks p99 %.4f ms, worst %.4f ms; checkpoints %g; wal fsyncs %g",
		quantile(ack[live], 0.99), quantile(ack[live], 1), counters["lsdb_store_checkpoints_total"], counters["lsdb_wal_fsyncs_total"])
	res.set("rss_peak_mb", max(rssIngest, rssRecover), "MB", 0, "VmHWM of the live lsdbd child, ingest or recovery, whichever is higher")
	res.infof("live daemon recovery: exec to /navigate %v s, to /search %v s", toNavigate[live], recov[live])
	return res, nil
}

// lostFacts asks the daemon for every fact as a proposition, 256 to a
// /batch, and returns how many it does not hold.
func lostFacts(c *client, facts []fact3) (int, error) {
	defer c.close()
	lost := 0
	for lo := 0; lo < len(facts); lo += 256 {
		hi := min(lo+256, len(facts))
		ops := make([]map[string]any, 0, hi-lo)
		for _, f := range facts[lo:hi] {
			ops = append(ops, map[string]any{"op": "query", "q": fmt.Sprintf("(%s, %s, %s)", f.S, f.R, f.T)})
		}
		body, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			return 0, err
		}
		status, resp, err := c.do(http.MethodPost, "/batch", body)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("verify batch: status %d: %v", status, err)
		}
		lost += (hi - lo) - bytes.Count(resp, []byte(`"true":true`))
	}
	return lost, nil
}
