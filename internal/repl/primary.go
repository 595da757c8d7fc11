package repl

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// PrimaryOptions tunes a replication primary. The zero value gets
// sensible defaults.
type PrimaryOptions struct {
	// LagBudget is how many records a connected follower may fall
	// behind before the primary stops holding compaction for it. A
	// follower past the budget sees 410 Gone and re-bootstraps from a
	// snapshot. Default 8192.
	LagBudget uint64
	// StaleAfter is how long a silent follower keeps counting as
	// connected for compaction gating. Default 10s.
	StaleAfter time.Duration
	// MaxWait caps the long-poll duration a follower may request.
	// Default 25s.
	MaxWait time.Duration
	// Poll is the interval at which a long poll re-checks the durable
	// watermark. Default 2ms.
	Poll time.Duration
}

func (o *PrimaryOptions) defaults() {
	if o.LagBudget == 0 {
		o.LagBudget = 8192
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 25 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
}

// followerAck is the primary's view of one follower.
type followerAck struct {
	acked    uint64
	lastSeen time.Time
}

// FollowerInfo is one follower's ack state, for /stats.
type FollowerInfo struct {
	ID       string    `json:"id"`
	AckedLSN uint64    `json:"acked_lsn"`
	LastSeen time.Time `json:"last_seen"`
}

// Primary serves the replication endpoints for one database and gates
// its log compaction on follower acknowledgements.
type Primary struct {
	db   *lsdb.Database
	st   *store.Store
	opts PrimaryOptions

	mu        sync.Mutex
	followers map[string]*followerAck

	batches   *obs.Counter
	records   *obs.Counter
	snapshots *obs.Counter
	gone      *obs.Counter
}

// NewPrimary wires db for replication: it registers the primary's
// metrics and installs a compact gate that defers checkpoints while a
// live follower still needs log records (up to the lag budget).
func NewPrimary(db *lsdb.Database, opts PrimaryOptions) *Primary {
	opts.defaults()
	p := &Primary{
		db:        db,
		st:        db.Store(),
		opts:      opts,
		followers: make(map[string]*followerAck),
	}
	r := db.Metrics()
	p.batches = r.Counter("lsdb_repl_wal_batches_total")
	p.records = r.Counter("lsdb_repl_wal_records_total")
	p.snapshots = r.Counter("lsdb_repl_snapshots_total")
	p.gone = r.Counter("lsdb_repl_wal_gone_total")
	r.GaugeFunc("lsdb_repl_followers", func() float64 {
		_, n := p.MinAckedLSN()
		return float64(n)
	})
	r.GaugeFunc("lsdb_repl_min_acked_lsn", func() float64 {
		min, n := p.MinAckedLSN()
		if n == 0 {
			return 0
		}
		return float64(min)
	})
	p.st.SetCompactGate(p.AllowCompact)
	return p
}

// observe records a follower's poll: asking for records after `from`
// acknowledges durable possession of everything up to it.
func (p *Primary) observe(id string, from uint64) {
	if id == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.followers[id]
	if f == nil {
		f = &followerAck{}
		p.followers[id] = f
	}
	if from > f.acked {
		f.acked = from
	}
	f.lastSeen = time.Now()
}

// MinAckedLSN returns the lowest acknowledged LSN among live
// followers and how many there are. Stale followers are dropped.
func (p *Primary) MinAckedLSN() (uint64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	min, n := ^uint64(0), 0
	for id, f := range p.followers {
		if now.Sub(f.lastSeen) > p.opts.StaleAfter {
			delete(p.followers, id)
			continue
		}
		n++
		if f.acked < min {
			min = f.acked
		}
	}
	if n == 0 {
		return 0, 0
	}
	return min, n
}

// AllowCompact is the store's compact gate: compaction up to LSN upto
// proceeds when no live follower needs those records, or when the
// slowest follower has fallen past the lag budget (it will get a 410
// and re-bootstrap rather than hold the log hostage).
func (p *Primary) AllowCompact(upto uint64) bool {
	min, n := p.MinAckedLSN()
	if n == 0 || min >= upto {
		return true
	}
	return upto-min > p.opts.LagBudget
}

// Followers reports the live follower acks for /stats.
func (p *Primary) Followers() []FollowerInfo {
	p.MinAckedLSN() // prune stale entries
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerInfo, 0, len(p.followers))
	for id, f := range p.followers {
		out = append(out, FollowerInfo{ID: id, AckedLSN: f.acked, LastSeen: f.lastSeen})
	}
	return out
}

// LagBudget reports the configured budget, for /stats.
func (p *Primary) LagBudget() uint64 { return p.opts.LagBudget }

// ServeSnapshot answers GET /repl/snapshot: the full fact set as a
// snapshot whose header carries the LSN it corresponds to, which the
// X-Lsdb-Lsn header repeats. The pair is a valid bootstrap: load the
// snapshot, then tail /repl/wal from that LSN.
func (p *Primary) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	facts, lsn, err := p.st.SnapshotFacts()
	if err != nil {
		http.Error(w, "snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Lsdb-Lsn", strconv.FormatUint(lsn, 10))
	p.snapshots.Inc()
	p.st.EncodeSnapshot(w, facts, lsn) // nothing to do about a mid-stream write error
}

// ServeWAL answers GET /repl/wal?from=&max=&wait=&id=: a batch of
// durable records with LSNs in (from, durable]. With wait (in
// milliseconds) the request long-polls until a record is available or
// the wait expires; an empty batch is a valid answer. A `from` below
// the compaction base answers 410 Gone with the current position in
// X-Lsdb-Base/X-Lsdb-Durable, telling the follower to re-bootstrap.
func (p *Primary) ServeWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	max := 4096
	if s := q.Get("max"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			max = v
		}
	}
	if max > 65536 {
		max = 65536
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		if ms, err := strconv.Atoi(s); err == nil && ms > 0 {
			wait = time.Duration(ms) * time.Millisecond
		}
	}
	if wait > p.opts.MaxWait {
		wait = p.opts.MaxWait
	}
	p.observe(q.Get("id"), from)

	deadline := time.Now().Add(wait)
	var recs []store.WALRecord
	var pos store.WALPos
	for {
		recs, pos, err = p.st.ReadWAL(from, max)
		if err == store.ErrWALTrimmed {
			w.Header().Set("X-Lsdb-Base", strconv.FormatUint(pos.Base, 10))
			w.Header().Set("X-Lsdb-Durable", strconv.FormatUint(pos.Durable, 10))
			p.gone.Inc()
			http.Error(w, "requested records compacted away; re-bootstrap from /repl/snapshot", http.StatusGone)
			return
		}
		if err != nil {
			http.Error(w, "wal: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if len(recs) > 0 || !time.Now().Before(deadline) {
			break
		}
		// Nothing new yet: poll the durable watermark until the
		// deadline, bailing out if the follower hangs up.
		select {
		case <-r.Context().Done():
			return
		case <-time.After(p.opts.Poll):
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Lsdb-Base", strconv.FormatUint(pos.Base, 10))
	w.Header().Set("X-Lsdb-Durable", strconv.FormatUint(pos.Durable, 10))
	p.batches.Inc()
	p.records.Add(uint64(len(recs)))
	writeBatch(w, pos, recs) // mid-stream write error = follower hung up
}
