// Replication fault injection: an oracle that runs a primary/follower
// pair through byte-accurate faults on either side of the WAL stream
// and asserts the replication contract:
//
//  1. prefix — at every observable moment (mid-stream samples, after a
//     follower crash, after a primary crash) the follower's fact set
//     equals the primary's state at the follower's applied LSN, never
//     a scramble or an invention;
//  2. recoverability — a follower restarted from the follower's log,
//     however torn, always comes back at some applied prefix and can
//     resume (or snapshot re-bootstrap) to full convergence;
//  3. closure — the follower's derived closure is identical to a
//     fresh database replaying the same facts, so replication and
//     inference compose.
//
// Faults come from three injectors: CrashFS budgets on the follower's
// store (torn appends and torn re-bootstraps of the follower's log),
// CrashFS budgets on the primary's store (torn WAL appends, restart
// with a truncated tail), and a one-shot connection cut that tears the
// HTTP response stream at a byte budget (torn batches, torn
// snapshots).
package check

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/gen"
	"repro/internal/repl"
	"repro/internal/store"
)

// errDropped is what a torn connection surfaces to the follower: the
// bytes before the budget arrived, then the stream died.
var errDropped = errors.New("check: simulated connection drop")

// cutTransport wraps a RoundTripper and tears exactly one response
// body: the read crossing the byte budget returns the prefix that
// "arrived" and then errDropped. Every request after the cut passes
// through untouched, so the oracle can assert the follower recovers.
// With an unlimited budget it only counts the bytes delivered, which
// calibrates the budgets a sweep will use.
type cutTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	budget int64
	read   int64 // body bytes delivered before the cut
	cut    bool
}

func (c *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	c.mu.Lock()
	done := c.cut
	c.mu.Unlock()
	if !done {
		resp.Body = &cutBody{rc: resp.Body, t: c}
	}
	return resp, nil
}

func (c *cutTransport) delivered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read
}

type cutBody struct {
	rc io.ReadCloser
	t  *cutTransport
}

func (b *cutBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.t.mu.Lock()
	if b.t.cut {
		b.t.mu.Unlock()
		return n, err
	}
	if b.t.read+int64(n) > b.t.budget {
		allowed := b.t.budget - b.t.read
		b.t.read = b.t.budget
		b.t.cut = true
		b.t.mu.Unlock()
		b.rc.Close()
		return int(allowed), errDropped
	}
	b.t.read += int64(n)
	b.t.mu.Unlock()
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

// swapHandler is a stable URL whose backend can be replaced or taken
// down, so a primary can "crash" and restart without the follower's
// configured address changing.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "primary down", http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// stateTrack applies a primary's ops and records the fact set at
// every commit LSN — the ground truth the prefix oracle compares
// followers against.
type stateTrack struct {
	states map[uint64]map[[3]string]bool
	cur    map[[3]string]bool
}

func newStateTrack() *stateTrack {
	return &stateTrack{
		states: map[uint64]map[[3]string]bool{0: {}},
		cur:    map[[3]string]bool{},
	}
}

// apply runs one op through the primary's logged store. On success the
// state after the op is recorded under its commit LSN; on error (a
// simulated crash) nothing is recorded — the op was never acked.
func (tr *stateTrack) apply(db *lsdb.Database, op gen.Op) error {
	after, err := logOp(db.Universe(), db.Store(), op, tr.cur)
	if err != nil {
		return err
	}
	if after != nil {
		tr.states[db.LSN()] = after
	}
	return nil
}

// rewind resets the track to the state at lsn, discarding every later
// recording — what a primary restart does to history.
func (tr *stateTrack) rewind(lsn uint64) {
	for l := range tr.states {
		if l > lsn {
			delete(tr.states, l)
		}
	}
	tr.cur = maps.Clone(tr.states[lsn])
}

// A faultPoint is one point of one scenario's sweep; failures name it.
type faultPoint struct {
	scenario string
	seed     int64
	point    int // -1 for the clean run
}

func (p faultPoint) fail(format string, args ...any) error {
	return fmt.Errorf("%s seed %d point %d: %s", p.scenario, p.seed, p.point, fmt.Sprintf(format, args...))
}

// primary starts the point's primary in a fresh directory under dir
// and serves it. It returns the follower's directory and a done that
// stops and removes everything.
func (p faultPoint) primary(dir string, opts repl.PrimaryOptions) (pdb *lsdb.Database, url, fdir string, done func(), err error) {
	sub := filepath.Join(dir, fmt.Sprintf("%s-%d", p.scenario, p.point))
	fdir = filepath.Join(sub, "f")
	os.MkdirAll(fdir, 0o755)
	pdb, mux, err := startPrimary(filepath.Join(sub, "p.log"), nil, opts)
	if err != nil {
		os.RemoveAll(sub)
		return nil, "", "", nil, p.fail("start primary: %v", err)
	}
	srv := httptest.NewServer(mux)
	return pdb, srv.URL, fdir, func() { srv.Close(); pdb.Close(); os.RemoveAll(sub) }, nil
}

// prefix checks the core invariant: the follower's fact set at applied
// LSN A equals the primary's recorded state at A.
func (p faultPoint) prefix(ctx string, applied uint64, got map[[3]string]bool, tr *stateTrack) error {
	want, ok := tr.states[applied]
	if !ok {
		return p.fail("%s: follower applied LSN %d matches no primary state (max %d)", ctx, applied, len(tr.states)-1)
	}
	if _, _, differ := diffSets(got, want); differ {
		return p.fail("%s: follower at LSN %d diverged:\n  got  %s\n  want %s",
			ctx, applied, formatSet(got), formatSet(want))
	}
	return nil
}

// closure rebuilds the follower's fact set in a fresh database and
// requires both closures to be identical — replication must be
// invisible to inference. It runs on every fourth point.
func (p faultPoint) closure(fdb *lsdb.Database) error {
	if p.point%4 != 0 {
		return nil
	}
	fresh, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		return p.fail("closure oracle: open fresh db: %v", err)
	}
	defer fresh.Close()
	u := fdb.Universe()
	for _, fc := range fdb.Store().Facts() {
		if err := fresh.Assert(u.Name(fc.S), u.Name(fc.R), u.Name(fc.T)); err != nil {
			return p.fail("closure oracle: replay assert: %v", err)
		}
	}
	if err := sameFacts("fact", "the follower's closure", "the fresh replay's closure",
		tripleSet(u, fdb.Engine().Closure()), tripleSet(fresh.Universe(), fresh.Engine().Closure())); err != nil {
		return p.fail("%v", err)
	}
	return nil
}

// A follower is one replica under test: its database, its
// replication loop, and the batch lock they share.
type follower struct {
	db *lsdb.Database
	fl *repl.Follower
	mu *sync.Mutex
}

func (f *follower) stop() {
	f.fl.Stop()
	f.db.Close()
}

// sample reads the follower's (applied, fact set) pair atomically
// under its batch lock, so the prefix check never observes a
// half-applied batch.
func (f *follower) sample() (uint64, map[[3]string]bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fl.AppliedLSN(), tripleSet(f.db.Universe(), f.db.Store())
}

// converged waits for f to reach lsn, then requires the primary's
// state at f's applied LSN and a follower that is not fatal.
func (p faultPoint) converged(ctx string, f *follower, lsn uint64, tr *stateTrack) error {
	if _, ok := f.fl.WaitLSN(lsn, replWaitTimeout); !ok {
		return p.fail("%s: follower stuck: %+v", ctx, f.fl.Stats())
	}
	applied, got := f.sample()
	if err := p.prefix(ctx, applied, got, tr); err != nil {
		return err
	}
	if st := f.fl.Stats(); st.Fatal {
		return p.fail("%s: follower fatal: %+v", ctx, st)
	}
	return nil
}

// startPrimary opens a database, attaches a SyncAlways log on fs (nil
// for the real filesystem), and returns it with replication handlers.
// On error nothing is left open.
func startPrimary(path string, fs store.FS, opts repl.PrimaryOptions) (*lsdb.Database, http.Handler, error) {
	db, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		return nil, nil, err
	}
	if fs != nil {
		db.Store().SetFS(fs)
	}
	if _, err := db.Store().AttachLogPolicy(path, store.SyncAlways); err != nil {
		db.Close()
		return nil, nil, err
	}
	p := repl.NewPrimary(db, opts)
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", p.ServeWAL)
	mux.HandleFunc("/repl/snapshot", p.ServeSnapshot)
	return db, mux, nil
}

// startFollower opens a follower on fs (nil for the real filesystem)
// tailing primary, with small batches and an aggressive poll cadence
// so fault budgets land on many distinct protocol positions. On error
// nothing is left open.
func startFollower(dir, primary string, client *http.Client, fs store.FS) (*follower, error) {
	db, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		return nil, err
	}
	if fs != nil {
		db.Store().SetFS(fs)
	}
	f := &follower{db: db, mu: &sync.Mutex{}}
	f.fl, err = repl.NewFollower(db, repl.Config{
		Primary:  primary,
		Dir:      dir,
		Name:     "f",
		ID:       "oracle",
		Client:   client,
		WaitMs:   25,
		BatchMax: 5,
		Backoff:  time.Millisecond,
		Lock:     f.mu,
	})
	if err == nil {
		err = f.fl.Start()
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return f, nil
}

// waitFatalOr polls until the follower either reports a fatal local
// failure or reaches lsn; false means it did neither in time.
func waitFatalOr(fl *repl.Follower, lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fl.Stats().Fatal || fl.AppliedLSN() >= lsn {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

const replWaitTimeout = 15 * time.Second

// unreachable is a primary URL that always refuses, for auditing what
// a follower recovers from disk alone.
const unreachable = "http://127.0.0.1:1"

// audit restarts a follower from dir against an unreachable primary
// and checks it comes back at an exact applied prefix.
func (p faultPoint) audit(dir string, maxLSN uint64, tr *stateTrack) error {
	f, err := startFollower(dir, unreachable, nil, nil)
	if err != nil {
		return p.fail("recovery from local files failed: %v", err)
	}
	applied, got := f.sample()
	f.stop()
	if applied > maxLSN {
		return p.fail("recovered applied LSN %d exceeds primary LSN %d", applied, maxLSN)
	}
	return p.prefix("after restart", applied, got, tr)
}

// replDropSweep tears the WAL stream once per point at budgets swept
// across its clean byte cost: torn batch bodies, torn headers, cuts
// between polls. The follower must keep an exact prefix mid-flight
// and still converge.
func replDropSweep(seed int64, points int, dir string) (int, error) {
	ops := gen.LogWorkload(seed, gen.Small())
	return cutSweep(fmt.Sprintf("drop seed %d", seed), points, func() ([]int64, error) {
		// The clean run measures stream bytes and doubles as the baseline.
		ct := &cutTransport{base: http.DefaultTransport, budget: unlimited}
		err := faultPoint{"drop", seed, -1}.session(ops, dir, &http.Client{Transport: ct}, nil)
		return []int64{ct.delivered()}, err
	}, func(i int, budgets []int64) error {
		cut := &cutTransport{base: http.DefaultTransport, budget: budgets[0]}
		return faultPoint{"drop", seed, i}.session(ops, dir, &http.Client{Transport: cut}, nil)
	})
}

// session runs one full primary/follower session with the given
// follower HTTP client and filesystem, sampling the prefix invariant
// mid-stream and requiring convergence plus closure equality. A fault
// the follower recovers from must not make it fatal.
func (p faultPoint) session(ops []gen.Op, dir string, client *http.Client, fs store.FS) error {
	pdb, url, fdir, done, err := p.primary(dir, repl.PrimaryOptions{})
	if err != nil {
		return err
	}
	defer done()

	f, err := startFollower(fdir, url, client, fs)
	if err != nil {
		return p.fail("start follower: %v", err)
	}
	defer f.stop()

	tr := newStateTrack()
	for i, op := range ops {
		if err := tr.apply(pdb, op); err != nil {
			return p.fail("primary op %d: %v", i, err)
		}
		if i%8 == 7 {
			applied, got := f.sample()
			if err := p.prefix(fmt.Sprintf("mid-stream after op %d", i), applied, got, tr); err != nil {
				return err
			}
		}
	}
	if err := p.converged("converged", f, pdb.LSN(), tr); err != nil {
		return err
	}
	return p.closure(f.db)
}

// replFollowerCrashSweep kills the follower's filesystem at budgets
// swept across its clean disk cost — torn log appends, dead syncs —
// then audits recovery from the surviving files and full catch-up.
// Odd points compact the primary between crash and catch-up, forcing
// the recovered follower down the snapshot re-bootstrap path.
func replFollowerCrashSweep(seed int64, points int, dir string) (int, error) {
	ops := gen.LogWorkload(seed, gen.Small())
	return cutSweep(fmt.Sprintf("follower-crash seed %d", seed), points, func() ([]int64, error) {
		// The clean run measures the follower's disk byte cost.
		probe := NewCrashFS(unlimited)
		err := faultPoint{"follower-crash", seed, -1}.session(ops, dir, nil, probe)
		return []int64{probe.Written()}, err
	}, func(i int, budgets []int64) error {
		return faultPoint{"follower-crash", seed, i}.followerCrash(ops, dir, budgets[0])
	})
}

func (p faultPoint) followerCrash(ops []gen.Op, dir string, budget int64) error {
	// LagBudget 1 so the crashed follower's stale ack cannot defer the
	// compaction odd points use to force a re-bootstrap.
	pdb, url, fdir, done, err := p.primary(dir, repl.PrimaryOptions{LagBudget: 1})
	if err != nil {
		return err
	}
	defer done()

	// A follower that crashed attaching its log has nothing on disk yet.
	f, err := startFollower(fdir, url, nil, NewCrashFS(budget))

	tr := newStateTrack()
	for i, op := range ops {
		if err := tr.apply(pdb, op); err != nil {
			return p.fail("primary op %d: %v", i, err)
		}
	}
	final := pdb.LSN()
	if err == nil {
		if !waitFatalOr(f.fl, final, replWaitTimeout) {
			return p.fail("follower neither crashed nor converged: %+v", f.fl.Stats())
		}
		f.stop()
	}

	// Recovery audit: whatever survived on disk is an exact prefix.
	if err := p.audit(fdir, final, tr); err != nil {
		return err
	}

	if p.point%2 == 1 {
		if err := pdb.Compact(); err != nil {
			return p.fail("compact: %v", err)
		}
	}

	// Catch-up: a restarted follower converges, re-bootstrapping from a
	// snapshot when compaction trimmed its resume position away.
	f2, err := startFollower(fdir, url, nil, nil)
	if err != nil {
		return p.fail("restart follower: %v", err)
	}
	defer f2.stop()
	if err := p.converged("after catch-up", f2, final, tr); err != nil {
		return err
	}
	return p.closure(f2.db)
}

// replBootstrapSweep aims faults at the snapshot bootstrap path: a
// fresh follower joins a compacted primary, so its very first step is
// a snapshot fetch and the follower's log written from it. Even points
// tear the HTTP stream (torn snapshot bodies), odd points crash the
// follower's filesystem (a torn follower's log); either way the
// follower must end converged, its log holding either no bootstrap or
// a complete one.
func replBootstrapSweep(seed int64, points int, dir string) (int, error) {
	ops := gen.LogWorkload(seed, gen.Small())
	if len(ops) > 30 {
		ops = ops[:30]
	}
	return cutSweep(fmt.Sprintf("bootstrap seed %d", seed), points, func() ([]int64, error) {
		// The clean run against a compacted primary measures both costs.
		ct := &cutTransport{base: http.DefaultTransport, budget: unlimited}
		probe := NewCrashFS(unlimited)
		err := faultPoint{"bootstrap", seed, -1}.bootstrap(ops, dir, &http.Client{Transport: ct}, probe)
		return []int64{ct.delivered(), probe.Written()}, err
	}, func(i int, budgets []int64) error {
		p := faultPoint{"bootstrap", seed, i}
		if i%2 == 0 {
			return p.bootstrap(ops, dir, &http.Client{Transport: &cutTransport{base: http.DefaultTransport, budget: budgets[0]}}, nil)
		}
		return p.bootstrap(ops, dir, nil, NewCrashFS(budgets[1]))
	})
}

func (p faultPoint) bootstrap(ops []gen.Op, dir string, client *http.Client, fs store.FS) error {
	pdb, url, fdir, done, err := p.primary(dir, repl.PrimaryOptions{LagBudget: 1})
	if err != nil {
		return err
	}
	defer done()
	tr := newStateTrack()
	for i, op := range ops {
		if err := tr.apply(pdb, op); err != nil {
			return p.fail("primary op %d: %v", i, err)
		}
	}
	// Compact before the follower exists: record 1 is gone, so joining
	// MUST go through the snapshot bootstrap.
	if err := pdb.Compact(); err != nil {
		return p.fail("compact: %v", err)
	}
	if pdb.Store().BaseLSN() == 0 {
		return p.fail("compaction did not move the log base; bootstrap path not exercised")
	}

	final := pdb.LSN()
	if f, err := startFollower(fdir, url, client, fs); err == nil {
		converged := waitFatalOr(f.fl, final, replWaitTimeout)
		st := f.fl.Stats()
		applied, got := f.sample()
		f.stop()
		switch {
		case !converged:
			return p.fail("joining follower neither crashed nor converged: %+v", st)
		case st.Fatal && p.point < 0:
			return p.fail("clean run crashed: %+v", st)
		case !st.Fatal:
			if err := p.prefix("after bootstrap", applied, got, tr); err != nil {
				return err
			}
			if st.Rebootstraps == 0 {
				return p.fail("follower converged without a snapshot bootstrap against a compacted log")
			}
		}
	}

	// Whatever the fault left behind, a restart recovers a prefix...
	if err := p.audit(fdir, final, tr); err != nil {
		return err
	}
	// ...and a healthy retry converges and keeps tailing new writes.
	f2, err := startFollower(fdir, url, nil, nil)
	if err != nil {
		return p.fail("bootstrap retry: %v", err)
	}
	defer f2.stop()
	if err := p.converged("bootstrap retry", f2, final, tr); err != nil {
		return err
	}
	if err := tr.apply(pdb, gen.Op{Kind: gen.OpAssert, S: "POST-BOOT", R: "in", T: "LIVE"}); err != nil {
		return p.fail("post-bootstrap write: %v", err)
	}
	if err := p.converged("tailing after bootstrap", f2, pdb.LSN(), tr); err != nil {
		return err
	}
	return p.closure(f2.db)
}

// replPrimaryCrashSweep kills the primary's filesystem at budgets
// swept across its clean write cost, restarts it from the torn log
// behind a stable URL, and replays the unacknowledged suffix. The
// follower — which only ever saw durable records — must ride through
// the restart to full convergence, and the recovered primary itself
// must come back at exactly the acknowledged prefix. Odd points
// compact during the downtime, forcing the follower to re-bootstrap
// across the restart.
func replPrimaryCrashSweep(seed int64, points int, dir string) (int, error) {
	ops := gen.LogWorkload(seed, gen.Small())
	return cutSweep(fmt.Sprintf("primary-crash seed %d", seed), points, func() ([]int64, error) {
		// Clean cost: the workload's primary-side bytes, follower-free
		// (acks and serving write nothing).
		p := faultPoint{"primary-crash", seed, -1}
		probe := NewCrashFS(unlimited)
		path := filepath.Join(dir, "pcrash-clean.log")
		defer os.Remove(path)
		db, _, err := startPrimary(path, probe, repl.PrimaryOptions{})
		if err != nil {
			return nil, p.fail("clean start: %v", err)
		}
		tr := newStateTrack()
		for i, op := range ops {
			if err := tr.apply(db, op); err != nil {
				db.Close()
				return nil, p.fail("clean op %d: %v", i, err)
			}
		}
		db.Close()
		return []int64{probe.Written()}, nil
	}, func(i int, budgets []int64) error {
		return faultPoint{"primary-crash", seed, i}.primaryCrash(ops, dir, budgets[0])
	})
}

func (p faultPoint) primaryCrash(ops []gen.Op, dir string, budget int64) error {
	sub := filepath.Join(dir, fmt.Sprintf("%s-%d", p.scenario, p.point))
	defer os.RemoveAll(sub)
	fdir, logPath := filepath.Join(sub, "f"), filepath.Join(sub, "p.log")
	os.MkdirAll(fdir, 0o755)

	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()

	f, err := startFollower(fdir, srv.URL, nil, nil)
	if err != nil {
		return p.fail("start follower: %v", err)
	}
	defer f.stop()

	// Doomed primary: apply ops until the byte budget kills it. Every
	// acked op is durable (SyncAlways), so lastAcked is the floor the
	// restart must recover to — exactly.
	tr := newStateTrack()
	var lastAcked uint64
	resume := 0
	pdb, mux, err := startPrimary(logPath, NewCrashFS(budget), repl.PrimaryOptions{LagBudget: 1})
	if err == nil {
		swap.set(mux)
		for i, op := range ops {
			if err := tr.apply(pdb, op); err != nil {
				resume = i
				break
			}
			lastAcked = pdb.LSN()
			resume = i + 1
		}
		swap.set(nil) // the crash: the primary vanishes mid-stream
		pdb.Store().CloseLog()
	}
	if resume == len(ops) {
		return p.fail("budget %d did not crash the primary; sweep misconfigured", budget)
	}

	// During the outage the follower may only hold acked state.
	applied, got := f.sample()
	if applied > lastAcked {
		return p.fail("follower applied LSN %d beyond the primary's durable %d", applied, lastAcked)
	}
	if err := p.prefix("during primary outage", applied, got, tr); err != nil {
		return err
	}

	// Restart from the torn log: recovery lands exactly on the acked
	// prefix — no acknowledged write lost, no torn record resurrected.
	ndb, nmux, err := startPrimary(logPath, nil, repl.PrimaryOptions{LagBudget: 1})
	if err != nil {
		return p.fail("primary restart: %v", err)
	}
	defer ndb.Close()
	if got := ndb.LSN(); got != lastAcked {
		return p.fail("primary recovered at LSN %d, want acked %d", got, lastAcked)
	}
	if err := sameFacts("fact", "the recovered primary", "the acked state",
		tripleSet(ndb.Universe(), ndb.Store()), tr.states[lastAcked]); err != nil {
		return p.fail("primary recovered state diverged: %v", err)
	}
	tr.rewind(lastAcked)
	if p.point%2 == 1 {
		if err := ndb.Compact(); err != nil {
			return p.fail("compact during downtime: %v", err)
		}
	}
	swap.set(nmux)

	// Replay the unacknowledged suffix and require convergence.
	for i := resume; i < len(ops); i++ {
		if err := tr.apply(ndb, ops[i]); err != nil {
			return p.fail("resumed op %d: %v", i, err)
		}
	}
	if err := p.converged("after primary restart", f, ndb.LSN(), tr); err != nil {
		return err
	}
	return p.closure(f.db)
}

// replSweep is the replication row: o.Points fault points per scenario
// for the world's seed.
func replSweep(w *gen.World, o Options) error {
	_, err := replScan(w.Seed, o.Points)
	return err
}

// replScan runs all four replication fault sweeps — stream drops,
// follower crashes, bootstrap faults, primary crashes — with points
// fault points each (10 when points is 0). It returns the number of
// points checked and the first failure, if any.
func replScan(seed int64, points int) (int, error) {
	if points <= 0 {
		points = 10
	}
	dir, err := os.MkdirTemp("", "lsdb-repl")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	checked := 0
	for _, sweep := range []func(int64, int, string) (int, error){
		replDropSweep,
		replFollowerCrashSweep,
		replBootstrapSweep,
		replPrimaryCrashSweep,
	} {
		n, err := sweep(seed, points, dir)
		checked += n
		if err != nil {
			return checked, err
		}
	}
	return checked, nil
}
