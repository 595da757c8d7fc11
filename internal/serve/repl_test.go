package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/dataset"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sym"
)

// replPair builds a primary serve.Server (logged database, serving
// /repl/*) and a follower serve.Server (read replica fed from it),
// both over real HTTP.
func replPair(t *testing.T) (primary, follower *httptest.Server, fl *repl.Follower) {
	t.Helper()

	pdb, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(t.TempDir(), "p.log")})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New()
	pt, err := ps.AddTenant(serve.DefaultTenant, pdb, serve.Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	pt.SetPrimary(repl.NewPrimary(pdb, repl.PrimaryOptions{}))
	primary = httptest.NewServer(ps.Mux())
	t.Cleanup(primary.Close)
	t.Cleanup(func() { pdb.Close() })

	fdb, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := serve.New()
	ft, err := fs.AddTenant(serve.DefaultTenant, fdb, serve.Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err = repl.NewFollower(fdb, repl.Config{
		Primary: primary.URL,
		Dir:     t.TempDir(),
		ID:      "replica-1",
		WaitMs:  100,
		Backoff: 5 * time.Millisecond,
		Lock:    ft.SnapLocker(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ft.SetFollower(fl, 2*time.Second)
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Stop)
	follower = httptest.NewServer(fs.Mux())
	t.Cleanup(follower.Close)
	return primary, follower, fl
}

// TestReplicaReadYourWrites drives the whole read-your-writes loop
// over HTTP: a write on the primary returns its commit LSN, and a
// follower read carrying that LSN as ?min_lsn= waits for replication
// and answers from caught-up state.
func TestReplicaReadYourWrites(t *testing.T) {
	primary, follower, _ := replPair(t)

	var wrote struct {
		Stored int    `json:"stored"`
		LSN    uint64 `json:"lsn"`
	}
	resp, err := http.Post(primary.URL+"/facts", "application/json",
		strings.NewReader(`{"s":"JOHN","r":"in","t":"EMPLOYEE"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrote); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wrote.LSN == 0 {
		t.Fatal("write response carries no commit LSN")
	}

	// Read-your-writes on the follower: min_lsn makes the read wait
	// for replication instead of racing it.
	var q struct {
		True bool `json:"true"`
	}
	url := follower.URL + "/query?q=" + escape("(JOHN, in, EMPLOYEE)") +
		fmt.Sprintf("&min_lsn=%d", wrote.LSN)
	if code := getJSON(t, url, &q); code != 200 {
		t.Fatalf("follower min_lsn read: status %d", code)
	}
	if !q.True {
		t.Fatal("replicated fact not visible on follower")
	}

	// A min_lsn the follower can never reach answers 412 with its
	// current watermark.
	var stale struct {
		Error string `json:"error"`
		LSN   uint64 `json:"lsn"`
	}
	url = follower.URL + "/query?q=" + escape("(JOHN, in, EMPLOYEE)") + "&min_lsn=999999"
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("unreachable min_lsn: status %d, want 412", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Lsdb-Lsn"); got == "" {
		t.Error("412 carries no X-Lsdb-Lsn header")
	}
	if err := json.NewDecoder(resp.Body).Decode(&stale); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stale.Error == "" || stale.LSN < wrote.LSN {
		t.Errorf("412 body = %+v, want error text and lsn >= %d", stale, wrote.LSN)
	}

	// Bad min_lsn is a 400, not a silent pass.
	resp, err = http.Get(follower.URL + "/query?q=x&min_lsn=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("min_lsn=banana: status %d, want 400", resp.StatusCode)
	}
}

// TestReplicaRejectsWrites pins the replica's write fence and admin
// surface: mutations and log recovery answer 403.
func TestReplicaRejectsWrites(t *testing.T) {
	_, follower, _ := replPair(t)
	resp, err := http.Post(follower.URL+"/facts", "application/json",
		strings.NewReader(`{"s":"A","r":"b","t":"C"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("POST /facts on replica: status %d, want 403", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, follower.URL+"/facts?s=A&r=b&t=C", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("DELETE /facts on replica: status %d, want 403", resp.StatusCode)
	}
	resp, err = http.Post(follower.URL+"/recover-log", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("POST /recover-log on replica: status %d, want 403", resp.StatusCode)
	}
}

// TestReplicationStats pins the /stats replication blocks on both
// sides and the follower watermark in /metrics.
func TestReplicationStats(t *testing.T) {
	primary, follower, fl := replPair(t)

	var wrote struct {
		LSN uint64 `json:"lsn"`
	}
	// The follower marks itself connected when a poll returns, after
	// the watermark has moved for every record in the poll's batch, so
	// the poll that carried a write may still be running once WaitLSN
	// returns. A second write travels in a later poll, which starts
	// only after the first one has returned.
	for _, body := range []string{`{"s":"X","r":"in","t":"Y"}`, `{"s":"X","r":"in","t":"Z"}`} {
		resp, err := http.Post(primary.URL+"/facts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&wrote)
		resp.Body.Close()
		if got, ok := fl.WaitLSN(wrote.LSN, 5*time.Second); !ok {
			t.Fatalf("follower stuck at %d", got)
		}
	}

	var fst struct {
		Replication struct {
			Role       string `json:"role"`
			AppliedLSN uint64 `json:"applied_lsn"`
			Connected  bool   `json:"connected"`
		} `json:"replication"`
	}
	if code := getJSON(t, follower.URL+"/stats", &fst); code != 200 {
		t.Fatalf("follower stats: %d", code)
	}
	if fst.Replication.Role != "replica" || fst.Replication.AppliedLSN < wrote.LSN {
		t.Errorf("follower replication block = %+v", fst.Replication)
	}
	if !fst.Replication.Connected {
		t.Error("follower reports disconnected while tailing")
	}

	var pst struct {
		Replication struct {
			Role string `json:"role"`
			Live int    `json:"live"`
		} `json:"replication"`
	}
	if code := getJSON(t, primary.URL+"/stats", &pst); code != 200 {
		t.Fatalf("primary stats: %d", code)
	}
	if pst.Replication.Role != "primary" || pst.Replication.Live != 1 {
		t.Errorf("primary replication block = %+v", pst.Replication)
	}

	// healthz on the replica reports its role and watermark.
	var hz struct {
		OK      bool `json:"ok"`
		Replica bool `json:"replica"`
	}
	if code := getJSON(t, follower.URL+"/healthz", &hz); code != 200 {
		t.Fatalf("follower healthz: %d", code)
	}
	if !hz.OK || !hz.Replica {
		t.Errorf("follower healthz = %+v", hz)
	}
}

// TestRecoverLogEndpoint pins the log-recovery surface: POST
// /recover-log rebuilds the log in place, preserves the LSN sequence,
// and the tenant accepts durable writes afterwards. (The sticky-error
// path itself is regression-tested at the store layer; this pins the
// HTTP surface and that a log-less tenant reports the failure.)
func TestRecoverLogEndpoint(t *testing.T) {
	pdb, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(t.TempDir(), "p.log")})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, pdb, serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()
	defer pdb.Close()

	resp, err := http.Post(srv.URL+"/facts", "application/json",
		strings.NewReader(`{"s":"A","r":"in","t":"B"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var rec struct {
		Recovered bool   `json:"recovered"`
		LSN       uint64 `json:"lsn"`
	}
	resp, err = http.Post(srv.URL+"/recover-log", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	code := resp.StatusCode
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code != 200 || !rec.Recovered || rec.LSN != 1 {
		t.Fatalf("recover-log: status %d body %+v, want 200 recovered at LSN 1", code, rec)
	}

	// Writes continue on the rebuilt log, LSNs continuing in sequence.
	var wrote struct {
		LSN uint64 `json:"lsn"`
	}
	resp, err = http.Post(srv.URL+"/facts", "application/json",
		strings.NewReader(`{"s":"C","r":"in","t":"D"}`))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&wrote)
	resp.Body.Close()
	if wrote.LSN != 2 {
		t.Errorf("post-recovery write LSN = %d, want 2", wrote.LSN)
	}

	// A tenant with no log cannot recover one.
	plain := testServer(t)
	resp, err = http.Post(plain.URL+"/recover-log", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("recover-log without log: status %d, want 500", resp.StatusCode)
	}
}

// TestReplEndpointsWithoutPrimary: a tenant not serving replication
// answers 404 on /repl/*, and a standalone tenant satisfies min_lsn
// against its own appended LSN.
func TestReplEndpointsWithoutPrimary(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/repl/wal?from=0", "/repl/snapshot"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without -serve-wal: status %d, want 404", path, resp.StatusCode)
		}
	}
	// Standalone without a log: LSN 0, so min_lsn=0 passes and
	// min_lsn=1 is 412 immediately (no log will ever advance it).
	var out map[string]any
	if code := getJSON(t, srv.URL+"/query?q="+escape("(JOHN, FAVORITE-MUSIC, ?p)")+"&min_lsn=0", &out); code != 200 {
		t.Errorf("min_lsn=0 standalone: status %d, want 200", code)
	}
	resp, err := http.Get(srv.URL + "/query?q=x&min_lsn=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("min_lsn beyond standalone LSN: status %d, want 412", resp.StatusCode)
	}
}

// TestE11ReplicaServesNavigationMix: a follower bootstrapped from the
// primary's snapshot serves the E7 navigation mix (same degrees
// retrieved) and does so at standalone speed. The floor is loose so
// machine noise can't flake the suite — a real regression (follower
// reads touching the replication path) would land far below it.
func TestE11ReplicaServesNavigationMix(t *testing.T) {
	if testing.Short() {
		t.Skip("E11 replicates a 20k-fact world")
	}
	w, err := newE11World()
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	if got, want := w.follower.Len(), w.primary.Len(); got != want {
		t.Fatalf("follower holds %d facts, primary %d", got, want)
	}
	const depth = 2
	strail, ftrail := e11Trail(w.standalone), e11Trail(w.follower)
	if got, want := replayNavigation(w.follower, depth, ftrail), replayNavigation(w.standalone, depth, strail); got != want {
		t.Fatalf("follower navigation degree %d, standalone %d", got, want)
	}

	base, foll := timeAlternating(10,
		func() { replayNavigation(w.standalone, depth, strail) },
		func() { replayNavigation(w.follower, depth, ftrail) })
	if frac := float64(base) / float64(foll); frac < 0.5 {
		t.Errorf("follower read fraction %.2f of standalone, want well above 0.5", frac)
	}

	lat, err := e11Lag(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range lat {
		if d > 5*time.Second {
			t.Errorf("write %d took %s to reach the follower", i, d)
		}
	}
	if got := w.fl.AppliedLSN(); got != w.primary.LSN() {
		t.Errorf("after lag run: follower applied %d, primary LSN %d", got, w.primary.LSN())
	}
}

// timeAlternating runs a and b `reps` times each, alternating which
// goes first, and returns the total wall time of each. Interleaving
// the runs spreads load that shifts during the measurement (other test
// packages in a parallel go test) over both sides instead of onto one.
func timeAlternating(reps int, a, b func()) (time.Duration, time.Duration) {
	var ta, tb time.Duration
	timed := func(fn func(), total *time.Duration) {
		start := time.Now()
		fn()
		*total += time.Since(start)
	}
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			timed(a, &ta)
			timed(b, &tb)
		} else {
			timed(b, &tb)
			timed(a, &ta)
		}
	}
	return ta, tb
}

// onDemandWorld returns the 20k-fact Zipf graph enriched with a
// structural overlay — a relationship hierarchy, inversions, and a
// class taxonomy with memberships — so that bounded on-demand matching
// has real inference to do per query, as a browsing workload over a
// loosely structured database would.
func onDemandWorld() *lsdb.Database {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: 2000, Facts: 20000, Relationships: 8, Seed: 17,
	})
	rel := func(i int) string { return fmt.Sprintf("REL-%02d", i) }
	for i := 1; i < 8; i += 2 {
		db.MustAssert(rel(i), "isa", rel(i-1))
	}
	for i := 0; i < 4; i++ {
		db.MustAssert(rel(i), "inv", fmt.Sprintf("REL-INV-%02d", i))
	}
	for j := 1; j < 6; j++ {
		db.MustAssert(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < len(names); i += 10 {
		db.MustAssert(names[i], "in", fmt.Sprintf("K%d", i%6))
	}
	return db
}

// replayNavigation replays one browsing session over the trail using
// bounded on-demand inference at the given depth (internal/browse
// navigation queries, never materializing the closure), returning the
// total degree retrieved.
func replayNavigation(db *lsdb.Database, depth int, trail []sym.ID) int {
	b := browse.NewOnDemand(db.Engine(), nil, depth)
	total := 0
	for _, e := range trail {
		total += b.Neighborhood(e).Degree()
	}
	return total
}

// e11World is a replicated pair carrying the onDemandWorld facts:
// standalone is the unreplicated baseline database, follower the
// replica database serving the same facts.
type e11World struct {
	standalone *lsdb.Database
	primary    *lsdb.Database
	follower   *lsdb.Database
	fl         *repl.Follower
	srv        *httptest.Server
	dir        string
}

func (w *e11World) close() {
	if w.fl != nil {
		w.fl.Stop()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.primary != nil {
		w.primary.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// newE11World builds the pair: the onDemandWorld facts are replayed
// into a logged primary (interval sync, so bulk load group-commits),
// the log is compacted so a joining follower takes the snapshot
// bootstrap path — how a replica is actually provisioned — and a
// follower is started and caught up.
func newE11World() (*e11World, error) {
	w := &e11World{}
	src := onDemandWorld()
	w.standalone = src

	dir, err := os.MkdirTemp("", "lsdb-e11")
	if err != nil {
		return nil, err
	}
	w.dir = dir

	pdb, err := lsdb.Open(lsdb.Options{
		LogPath:    dir + "/primary.log",
		SyncPolicy: lsdb.SyncInterval(2 * time.Millisecond),
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.primary = pdb
	pst, pu, su := pdb.Store(), pdb.Universe(), src.Universe()
	for _, f := range src.Store().Facts() {
		g := pu.NewFact(su.Name(f.S), su.Name(f.R), su.Name(f.T))
		if _, err := pst.InsertLogged(g); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := pdb.Sync(); err != nil {
		w.close()
		return nil, err
	}

	p := repl.NewPrimary(pdb, repl.PrimaryOptions{})
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", p.ServeWAL)
	mux.HandleFunc("/repl/snapshot", p.ServeSnapshot)
	w.srv = httptest.NewServer(mux)

	// Compact before the follower exists: the join goes through the
	// snapshot endpoint, not a 20k-record tail replay.
	if err := pdb.Compact(); err != nil {
		w.close()
		return nil, err
	}

	fdb, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		w.close()
		return nil, err
	}
	w.follower = fdb
	fl, err := repl.NewFollower(fdb, repl.Config{
		Primary: w.srv.URL,
		Dir:     dir,
		Name:    "e11",
		ID:      "e11-test",
		WaitMs:  250,
		Backoff: time.Millisecond,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	if err := fl.Start(); err != nil {
		w.close()
		return nil, err
	}
	w.fl = fl
	if _, ok := fl.WaitLSN(pdb.LSN(), 60*time.Second); !ok {
		w.close()
		return nil, fmt.Errorf("e11: follower never caught up to LSN %d (stats %+v)", pdb.LSN(), fl.Stats())
	}
	// The watermark reaches the primary's LSN before the follower
	// folds the snapshot into its derived closure (~1.5M facts on this
	// world); wait for the first clean poll so the lag measurement
	// sees steady state, not the bootstrap fold. The fold's length
	// depends on the machine (the race detector stretches it past a
	// minute), so wait for the fold itself first: ClosureLen joins the
	// build in progress. The deadline then bounds only the poll.
	fdb.ClosureLen()
	for deadline := time.Now().Add(60 * time.Second); !fl.Stats().Connected; {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("e11: follower never reached steady state (stats %+v)", fl.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return w, nil
}

// e11Trail maps the standard navigation trail (the onDemandWorld
// hub/mid/tail entities by Zipf rank) into db's universe by name, so
// the standalone and follower replays visit the same entities.
func e11Trail(db *lsdb.Database) []sym.ID {
	var out []sym.ID
	for _, i := range []int{0, 2, 20, 200, 1500} {
		out = append(out, db.Entity(fmt.Sprintf("N%06d", i)))
	}
	return out
}

// e11Lag drives writes through the primary, one at a time, and
// measures commit→applied latency on the follower: the time from the
// durable acknowledgment (what a client sees, with the commit LSN) to
// the follower's watermark reaching that LSN. Returns the per-write
// latencies.
func e11Lag(w *e11World, writes int) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, writes)
	for i := 0; i < writes; i++ {
		if err := w.primary.Assert(fmt.Sprintf("E11-W%d", i), "in", "E11-LAG"); err != nil {
			return nil, err
		}
		lsn := w.primary.LSN()
		t0 := time.Now()
		if _, ok := w.fl.WaitLSN(lsn, 10*time.Second); !ok {
			return nil, fmt.Errorf("e11: write %d (LSN %d) never reached the follower", i, lsn)
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, nil
}
