package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
)

// errRebootstrap tells the tail loop that the primary compacted past
// the follower's watermark (410 Gone) or that replay diverged; either
// way the fix is a fresh snapshot bootstrap.
var errRebootstrap = errors.New("repl: follower needs snapshot re-bootstrap")

// fatalError marks failures of the follower's own durability (its
// log) — the loop stops rather than keep advertising an applied
// watermark it could no longer recover.
type fatalError struct{ err error }

func (e fatalError) Error() string { return "repl: fatal: " + e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Config configures a Follower. Primary and Dir are required.
type Config struct {
	// Primary is the base URL of the primary daemon, e.g.
	// "http://10.0.0.1:8080".
	Primary string
	// Tenant selects the primary-side database (?db= parameter);
	// empty uses the primary's default tenant.
	Tenant string
	// Dir is the follower's data directory. It holds one log,
	// <Name>.log: a snapshot of the last bootstrap at its LSN followed
	// by the records applied since. Files of any other name are
	// ignored.
	Dir string
	// Name names the follower's log. Default "db".
	Name string
	// ID identifies this follower in the primary's ack registry.
	// Default Name@hostname.
	ID string
	// Client issues the HTTP requests. Default http.DefaultClient.
	Client *http.Client
	// Policy is the log's sync policy. The default, SyncNever,
	// relies on the per-batch sync the follower always performs, so
	// durability advances once per batch instead of once per record.
	Policy store.SyncPolicy
	// WaitMs is the long-poll duration requested from the primary.
	// Default 2000.
	WaitMs int
	// BatchMax bounds records per poll. Default 4096.
	BatchMax int
	// Backoff is the initial retry delay after a failed poll; it
	// doubles up to 1s. Default 50ms.
	Backoff time.Duration
	// Lock, when set, is held across every batch application and
	// re-bootstrap. The serving layer passes its snapshot write lock
	// so multi-read batches see one consistent LSN.
	Lock sync.Locker
}

// Stats is a follower's state for /stats and the oracle.
type Stats struct {
	Applied        uint64 `json:"applied_lsn"`
	PrimaryDurable uint64 `json:"primary_durable_lsn"`
	PrimaryBase    uint64 `json:"primary_base_lsn"`
	Connected      bool   `json:"connected"`
	Rebootstraps   uint64 `json:"rebootstraps"`
	Fatal          bool   `json:"fatal,omitempty"`
	LastErr        string `json:"last_err,omitempty"`
}

// Follower replays a primary's WAL into a local database. The
// database must have been opened without a log path: the follower
// attaches and owns its log.
type Follower struct {
	db  *lsdb.Database
	st  *store.Store
	u   *fact.Universe
	cfg Config

	applied     atomic.Uint64
	lastDurable atomic.Uint64
	lastBase    atomic.Uint64
	connected   atomic.Bool
	fatal       atomic.Bool

	condMu sync.Mutex
	cond   *sync.Cond

	errMu   sync.Mutex
	lastErr error

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	recs     *obs.Counter
	reboots  *obs.Counter
	pollErrs *obs.Counter
}

// NewFollower prepares (but does not start) a follower for db.
func NewFollower(db *lsdb.Database, cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: follower needs a primary URL")
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: follower needs a data directory")
	}
	if cfg.Name == "" {
		cfg.Name = "db"
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = cfg.Name + "@" + host
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.WaitMs <= 0 {
		cfg.WaitMs = 2000
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 4096
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	f := &Follower{db: db, st: db.Store(), u: db.Universe(), cfg: cfg}
	f.cond = sync.NewCond(&f.condMu)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.done = make(chan struct{})
	r := db.Metrics()
	f.recs = r.Counter("lsdb_repl_applied_records_total")
	f.reboots = r.Counter("lsdb_repl_rebootstraps_total")
	f.pollErrs = r.Counter("lsdb_repl_poll_errors_total")
	r.GaugeFunc("lsdb_repl_applied_lsn", func() float64 { return float64(f.applied.Load()) })
	r.GaugeFunc("lsdb_repl_primary_durable_lsn", func() float64 { return float64(f.lastDurable.Load()) })
	r.GaugeFunc("lsdb_repl_lag_records", func() float64 {
		d, a := f.lastDurable.Load(), f.applied.Load()
		if d <= a {
			return 0
		}
		return float64(d - a)
	})
	return f, nil
}

func (f *Follower) logPath() string { return filepath.Join(f.cfg.Dir, f.cfg.Name+".log") }

// Start restores local state by replaying the log and launches the
// tail loop. An absent log starts at LSN 0. Start returns without
// contacting the primary: a follower serves whatever it has while the
// primary is unreachable.
func (f *Follower) Start() error {
	info, err := f.st.AttachLogInfo(f.logPath(), f.cfg.Policy)
	if err != nil {
		return err
	}
	f.setApplied(info.LSN)
	f.db.ClosureLen() // build the closure before the first request
	go f.run()
	return nil
}

// Stop halts the tail loop and syncs and closes the log.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
	f.st.CloseLog()
}

// AppliedLSN is the follower's replication watermark: every primary
// record with an LSN at or below it has been applied locally.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// WaitLSN blocks until the applied watermark reaches min or the
// timeout expires, returning the watermark and whether it got there.
// This is the read-your-writes primitive behind ?min_lsn=.
func (f *Follower) WaitLSN(min uint64, timeout time.Duration) (uint64, bool) {
	if v := f.applied.Load(); v >= min {
		return v, true
	}
	deadline := time.Now().Add(timeout)
	f.condMu.Lock()
	defer f.condMu.Unlock()
	for {
		v := f.applied.Load()
		if v >= min {
			return v, true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return v, false
		}
		t := time.AfterFunc(remaining, func() {
			f.condMu.Lock()
			f.cond.Broadcast()
			f.condMu.Unlock()
		})
		f.cond.Wait()
		t.Stop()
	}
}

func (f *Follower) setApplied(lsn uint64) {
	f.applied.Store(lsn)
	f.condMu.Lock()
	f.cond.Broadcast()
	f.condMu.Unlock()
}

// Stats reports the follower's current state.
func (f *Follower) Stats() Stats {
	s := Stats{
		Applied:        f.applied.Load(),
		PrimaryDurable: f.lastDurable.Load(),
		PrimaryBase:    f.lastBase.Load(),
		Connected:      f.connected.Load(),
		Rebootstraps:   f.reboots.Value(),
		Fatal:          f.fatal.Load(),
	}
	f.errMu.Lock()
	if f.lastErr != nil {
		s.LastErr = f.lastErr.Error()
	}
	f.errMu.Unlock()
	return s
}

func (f *Follower) noteErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
}

// run is the tail loop: poll, apply, repeat; re-bootstrap on 410;
// back off on transient errors; stop on local durability failure.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.Backoff
	for f.ctx.Err() == nil {
		err := f.pollOnce()
		var fatal fatalError
		switch {
		case err == nil:
			backoff = f.cfg.Backoff
			f.connected.Store(true)
		case errors.Is(err, context.Canceled):
			return
		case errors.As(err, &fatal):
			f.noteErr(err)
			f.fatal.Store(true)
			return
		case errors.Is(err, errRebootstrap):
			f.reboots.Inc()
			if rerr := f.rebootstrap(); rerr != nil {
				if errors.As(rerr, &fatal) {
					f.noteErr(rerr)
					f.fatal.Store(true)
					return
				}
				f.noteErr(rerr)
				f.pollErrs.Inc()
				f.connected.Store(false)
				f.sleep(&backoff)
			} else {
				backoff = f.cfg.Backoff
				f.connected.Store(true)
			}
		default:
			f.noteErr(err)
			f.pollErrs.Inc()
			f.connected.Store(false)
			f.sleep(&backoff)
		}
	}
}

func (f *Follower) sleep(backoff *time.Duration) {
	select {
	case <-f.ctx.Done():
	case <-time.After(*backoff):
	}
	if *backoff < time.Second {
		*backoff *= 2
	}
}

func (f *Follower) get(path string, q url.Values) (*http.Response, error) {
	if f.cfg.Tenant != "" {
		q.Set("db", f.cfg.Tenant)
	}
	u := f.cfg.Primary + path + "?" + q.Encode()
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return f.cfg.Client.Do(req)
}

// pollOnce fetches and applies one WAL batch. Records are applied as
// they decode, so a connection cut mid-batch keeps the prefix that
// arrived — the next poll resumes after it.
func (f *Follower) pollOnce() error {
	from := f.applied.Load()
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("max", strconv.Itoa(f.cfg.BatchMax))
	q.Set("wait", strconv.Itoa(f.cfg.WaitMs))
	q.Set("id", f.cfg.ID)
	resp, err := f.get("/repl/wal", q)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errRebootstrap
	default:
		return fmt.Errorf("repl: primary answered %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	h, err := readBatchHeader(br)
	if err != nil {
		return err
	}
	f.lastBase.Store(h.pos.Base)
	f.lastDurable.Store(h.pos.Durable)
	if h.count == 0 {
		return nil
	}
	if h.first != from+1 {
		// The primary answered a different position than we asked for
		// — a proxy mixup or bug. Not applyable; treat as transient.
		return fmt.Errorf("repl: batch starts at LSN %d, expected %d", h.first, from+1)
	}
	return f.applyBatch(br, h)
}

// applyBatch replays h.count records from br. The configured Lock is
// held for the whole batch, so the serving layer's snapshot reads see
// batch-atomic state transitions; the watermark still advances per
// record so a torn batch keeps its applied prefix.
func (f *Follower) applyBatch(br *bufio.Reader, h batchHeader) error {
	if f.cfg.Lock != nil {
		f.cfg.Lock.Lock()
	}
	applied := 0
	var aerr error
	rr := store.NewRecordReader(br)
	for i := 0; i < h.count; i++ {
		rec, err := rr.Next()
		if err != nil {
			aerr = fmt.Errorf("repl: batch cut after %d of %d records: %w", i, h.count, err)
			break
		}
		fc := f.u.NewFact(rec.S, rec.R, rec.T)
		var changed bool
		var lerr error
		if rec.Delete {
			changed, lerr = f.st.DeleteLogged(fc)
		} else {
			changed, lerr = f.st.InsertLogged(fc)
		}
		if lerr != nil {
			aerr = fatalError{lerr}
			break
		}
		if !changed {
			// Replaying the primary's log over the primary's state at
			// `from` must change the store every time; a no-op means
			// the follower diverged. Rebuild from a snapshot.
			aerr = errRebootstrap
			break
		}
		applied++
		f.setApplied(h.first + uint64(i))
	}
	if f.cfg.Lock != nil {
		f.cfg.Lock.Unlock()
	}
	if applied > 0 {
		// Bound the refetch window after a follower crash: records are
		// durable locally before the next poll acknowledges them.
		if err := f.st.SyncLog(); err != nil && aerr == nil {
			aerr = fatalError{err}
		}
		f.recs.Add(uint64(applied))
		// The derived closure is NOT folded here: the engine observes
		// the store version and rebuilds on the next query that needs
		// it. Folding per batch would serialize replication behind
		// closure maintenance, which on inference-heavy worlds costs
		// seconds per write.
	}
	return aerr
}

// rebootstrap rebuilds local state from a primary snapshot: fetch and
// fully decode it, then, under the configured Lock, swap the store to
// it (minimal diff, not a rebuild) and replace the log with the
// snapshot at its LSN (Store.ResetTo). The snapshot is renamed over
// the log before the store changes, so a crash anywhere recovers
// either the old applied prefix or the new snapshot state.
func (f *Follower) rebootstrap() error {
	resp, err := f.get("/repl/snapshot", url.Values{})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: snapshot fetch answered %s", resp.Status)
	}
	facts, lsn, err := store.ReadSnapshotFacts(resp.Body, f.u)
	if err != nil {
		return err
	}
	if f.cfg.Lock != nil {
		f.cfg.Lock.Lock()
	}
	err = f.st.ResetTo(facts, lsn)
	if f.cfg.Lock != nil {
		f.cfg.Lock.Unlock()
	}
	if err != nil {
		return fatalError{err}
	}
	f.setApplied(lsn)
	f.lastBase.Store(lsn)
	f.db.ClosureLen()
	return nil
}
