package serve

import (
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/obs"
	"repro/internal/repl"
)

// Quotas bounds one tenant's resource use. The zero value of any
// field means "unlimited" (or the engine default for CacheEntries).
type Quotas struct {
	// MaxInflight caps concurrently admitted requests; a request that
	// would push the tenant past it is rejected with 429.
	MaxInflight int `json:"max_inflight"`
	// MaxDepth caps the on-demand inference depth a request may ask
	// for (?depth= on /derive, depth in batch ops). Requests asking
	// for more are rejected with 400; the default trace depth is
	// clamped to it.
	MaxDepth int `json:"max_depth"`
	// CacheEntries caps the tenant's cross-query subgoal cache.
	CacheEntries int `json:"cache_entries"`
}

// endpointMetrics is one endpoint's per-tenant handles, resolved once
// at tenant creation.
type endpointMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
	rejected *obs.Counter
}

// Tenant is one isolated database inside the Server: its lsdb
// instance (own universe, store, engine, registry), its quotas, and
// its admission state.
type Tenant struct {
	name   string
	db     *lsdb.Database
	quotas Quotas

	// snap serializes batches against mutations: a batch holds the
	// read side for its whole evaluation, mutating requests take the
	// write side, so every operation in a batch observes the same
	// published closure snapshot. Single-operation reads do not
	// lock — one operation observes one snapshot trivially.
	snap sync.RWMutex

	// Replication role, wired before the mux is built (at most one of
	// the two is set). A primary serves /repl/wal and /repl/snapshot
	// and gates its compaction on follower acks; a follower rejects
	// writes and answers ?min_lsn= reads against its applied
	// watermark.
	primary  *repl.Primary
	follower *repl.Follower
	replWait time.Duration

	// inflight counts every live request; admitted counts only the
	// quota-relevant ones (everything but the exempt observability
	// endpoints). Admission compares admitted — not inflight — against
	// MaxInflight, so a metrics scrape in flight can never push a real
	// request over quota.
	inflight *obs.Gauge
	admitted *obs.Gauge
	stale    *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	ep       []endpointMetrics // indexed like routes
}

func newTenant(name string, db *lsdb.Database, q Quotas) *Tenant {
	if q.CacheEntries > 0 {
		db.Engine().SetSubgoalCacheLimit(q.CacheEntries)
	}
	reg := db.Metrics()
	t := &Tenant{
		name:     name,
		db:       db,
		quotas:   q,
		inflight: reg.Gauge("lsdb_http_inflight"),
		admitted: reg.Gauge("lsdb_http_admitted"),
		stale:    reg.Counter("lsdb_http_stale_total"),
		bytesIn:  reg.Counter("lsdb_http_bytes_in_total"),
		bytesOut: reg.Counter("lsdb_http_bytes_out_total"),
		ep:       make([]endpointMetrics, len(routes)),
	}
	for i, rt := range routes {
		t.ep[i] = endpointMetrics{
			requests: reg.Counter("lsdb_http_requests_total", "endpoint", rt.endpoint),
			latency:  reg.Histogram("lsdb_http_request_ns", "endpoint", rt.endpoint),
			rejected: reg.Counter("lsdb_http_rejected_total", "endpoint", rt.endpoint),
		}
	}
	return t
}

// Name returns the tenant's database name.
func (t *Tenant) Name() string { return t.name }

// DB returns the tenant's database.
func (t *Tenant) DB() *lsdb.Database { return t.db }

// Quotas returns the tenant's quota configuration.
func (t *Tenant) Quotas() Quotas { return t.quotas }

// SetPrimary marks the tenant as a replication primary: /repl/wal and
// /repl/snapshot serve from p. Call before the mux is built.
func (t *Tenant) SetPrimary(p *repl.Primary) { t.primary = p }

// SetFollower marks the tenant as a read replica fed by f: writes are
// rejected with 403, and a read carrying ?min_lsn= waits up to wait
// for the applied watermark to catch up before answering 412. A
// non-positive wait defaults to 2s. Call before the mux is built.
func (t *Tenant) SetFollower(f *repl.Follower, wait time.Duration) {
	if wait <= 0 {
		wait = 2 * time.Second
	}
	t.follower = f
	t.replWait = wait
}

// Follower returns the tenant's replication follower, or nil.
func (t *Tenant) Follower() *repl.Follower { return t.follower }

// SnapLocker exposes the write side of the tenant's snapshot lock, so
// a replication follower applies WAL batches with the same exclusion
// mutating requests get: no in-progress batch read observes a
// half-applied replication batch.
func (t *Tenant) SnapLocker() sync.Locker { return &t.snap }

// admit accounts one request to routes[i] against the tenant's
// in-flight quota. On success it returns a release func the caller
// must invoke when the request finishes (the inflight gauge
// reconciles to zero once every admitted request has released). On
// rejection, ok is false, the route's rejected counter has moved, the
// gauge is already rolled back, and retryAfter is the suggested
// Retry-After in seconds: the overload ratio of the gauge to the
// quota, at least 1 — the more oversubscribed the tenant, the longer
// clients back off. Exempt routes (/metrics, /healthz, replication)
// and tenants with no MaxInflight are always admitted. Exempt
// requests count on the inflight gauge but not on the admitted gauge
// the quota compares against: a scrape or replication poll in flight
// must never consume a client request's admission slot.
func (t *Tenant) admit(i int) (release func(), retryAfter int, ok bool) {
	t.inflight.Add(1)
	if routes[i].exempt {
		return func() { t.inflight.Add(-1) }, 0, true
	}
	t.admitted.Add(1)
	if q := t.quotas.MaxInflight; q > 0 {
		if in := t.admitted.Value(); in > int64(q) {
			t.admitted.Add(-1)
			t.inflight.Add(-1)
			t.ep[i].rejected.Inc()
			retry := int((in + int64(q) - 1) / int64(q))
			if retry < 1 {
				retry = 1
			}
			return nil, retry, false
		}
	}
	return func() {
		t.admitted.Add(-1)
		t.inflight.Add(-1)
	}, 0, true
}

// Inflight returns the tenant's live in-flight request count.
func (t *Tenant) Inflight() int64 { return t.inflight.Value() }

// RejectedTotal sums the tenant's admission rejections across
// endpoints.
func (t *Tenant) RejectedTotal() uint64 {
	var n uint64
	for _, em := range t.ep {
		n += em.rejected.Value()
	}
	return n
}
