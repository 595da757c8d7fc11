// Package serve is the multi-tenant HTTP serving layer behind the
// lsdbd daemon: one Server hosts any number of isolated databases
// ("tenants"), each with its own lsdb instance, observability
// registry, durability log, and resource quotas.
//
// Isolation model. Tenants share nothing but the process: every
// tenant owns a private entity universe, store, inference engine,
// subgoal cache and metrics registry, so no query, cache entry or
// counter can leak across tenants. A request selects its tenant with
// the ?db= query parameter (default "default"), keeping every
// endpoint path identical to the single-tenant daemon.
//
// Admission control. Each tenant carries quotas (Quotas): a cap on
// concurrent in-flight requests, a cap on on-demand inference depth,
// and a cap on subgoal-cache entries. The in-flight cap is enforced
// by this package before the handler runs: a request that would push
// the tenant's inflight gauge past its quota is rejected with
// 429 Too Many Requests and a Retry-After header derived from the
// overload ratio, and counted on lsdb_http_rejected_total. /metrics
// and /healthz are exempt so an overloaded tenant can still be
// scraped and probed.
//
// Routes. Every endpoint is one row of the routes table: its path,
// its metric label, its methods, whether admission control and
// ?min_lsn= skip it, and its work. The read operations (query, probe,
// navigate, between, try, derive, check, search) are rows whose work
// is a read function of the tenant and the request's parameters; GET
// runs it on the URL query and POST /batch on one op object, both
// through one parameter reader, so the two surfaces answer alike.
//
// Batching. POST /batch evaluates a list of read operations in one
// round trip. All operations in a batch observe one closure snapshot:
// the batch holds the tenant's snapshot read-lock, which mutating
// requests take exclusively, so no write can interleave (batch.go).
package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	lsdb "repro"
)

// DefaultTenant is the database served when a request carries no
// ?db= parameter — the single-tenant daemon's database.
const DefaultTenant = "default"

// route is one endpoint of the mux.
type route struct {
	path     string
	endpoint string   // the endpoint label of the lsdb_http_* series
	methods  []string // every other method is answered 405 with Allow
	// exempt routes are never rejected by admission control nor gated
	// on ?min_lsn=: observability must stay reachable exactly when a
	// tenant is overloaded, and replication must keep draining the
	// WAL — a follower that cannot poll falls behind until it needs a
	// full re-bootstrap. Exempt requests count on the inflight gauge
	// but not against the admission quota (see Tenant.admit).
	exempt bool
	// read is a read operation: it answers from the request's
	// parameters alone, and POST /batch runs it by its endpoint name.
	// Routes without one write their own response through handle.
	read   func(*Tenant, *params) (int, any)
	handle func(*Tenant, http.ResponseWriter, *http.Request)
}

var (
	onlyGET  = []string{http.MethodGet}
	onlyPOST = []string{http.MethodPost}
)

// routes is every tenant-scoped endpoint. A tenant's metric handles
// are a slice in this order, resolved once at AddTenant.
var routes = []route{
	{path: "/facts", endpoint: "facts", methods: []string{http.MethodPost, http.MethodDelete}, handle: factsHandler},
	{path: "/query", endpoint: "query", methods: onlyGET, read: queryOp},
	{path: "/probe", endpoint: "probe", methods: onlyGET, read: probeOp},
	{path: "/navigate", endpoint: "navigate", methods: onlyGET, read: navigateOp},
	{path: "/between", endpoint: "between", methods: onlyGET, read: betweenOp},
	{path: "/try", endpoint: "try", methods: onlyGET, read: tryOp},
	{path: "/derive", endpoint: "derive", methods: onlyGET, read: deriveOp},
	{path: "/check", endpoint: "check", methods: onlyGET, read: checkOp},
	{path: "/search", endpoint: "search", methods: onlyGET, read: searchOp},
	{path: "/stats", endpoint: "stats", methods: onlyGET, handle: statsHandler},
	{path: "/metrics", endpoint: "metrics", methods: onlyGET, exempt: true, handle: metricsHandler},
	{path: "/healthz", endpoint: "healthz", methods: onlyGET, exempt: true, handle: healthzHandler},
	{path: "/batch", endpoint: "batch", methods: onlyPOST, handle: batchHandler},
	{path: "/repl/wal", endpoint: "repl_wal", methods: onlyGET, exempt: true, handle: replWALHandler},
	{path: "/repl/snapshot", endpoint: "repl_snapshot", methods: onlyGET, exempt: true, handle: replSnapshotHandler},
	{path: "/recover-log", endpoint: "recover", methods: onlyPOST, handle: recoverHandler},
}

// readOps finds a read operation by name for POST /batch. It is filled
// from routes at init, since batchHandler is itself a row of routes.
var readOps = map[string]func(*Tenant, *params) (int, any){}

func init() {
	for _, rt := range routes {
		if rt.read != nil {
			readOps[rt.endpoint] = rt.read
		}
	}
}

// Server hosts N isolated tenants behind one mux. Build it with New,
// add tenants with AddTenant, then wire it with Mux; the tenant set
// is frozen once the mux exists, so request-path lookups are plain
// map reads with no lock.
type Server struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	frozen  bool

	pprof bool

	// admitHook, when non-nil, runs after a request passes admission
	// and before its handler. It exists for the admission-control
	// contract tests, which need requests to be provably in flight;
	// production servers leave it nil.
	admitHook func(tenant, endpoint string)
}

// New returns a Server with no tenants.
func New() *Server {
	return &Server{tenants: make(map[string]*Tenant)}
}

// SetPprof mounts net/http/pprof under /debug/pprof/ on the mux
// built later. Off by default: the profile endpoints are not
// rate-limited and expose process internals.
func (s *Server) SetPprof(on bool) { s.pprof = on }

// SetAdmitHook installs the post-admission test hook (see admitHook).
// Must be called before Mux.
func (s *Server) SetAdmitHook(fn func(tenant, endpoint string)) { s.admitHook = fn }

// AddTenant registers a database under name with the given quotas.
// It must be called before Mux; the tenant's per-endpoint metric
// series are created here, in its own registry. A positive
// Quotas.CacheEntries is applied to the database's subgoal cache.
func (s *Server) AddTenant(name string, db *lsdb.Database, q Quotas) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: tenant name must not be empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return nil, fmt.Errorf("serve: cannot add tenant %q after the mux is built", name)
	}
	if _, ok := s.tenants[name]; ok {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	t := newTenant(name, db, q)
	s.tenants[name] = t
	return t, nil
}

// Tenant returns the named tenant, or nil.
func (s *Server) Tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// Names returns the tenant names, sorted.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sync flushes every tenant's durability log.
func (s *Server) Sync() error {
	var first error
	for _, name := range s.Names() {
		if err := s.Tenant(name).db.Sync(); err != nil && first == nil {
			first = fmt.Errorf("serve: sync tenant %s: %w", name, err)
		}
	}
	return first
}

// Close closes every tenant's durability log.
func (s *Server) Close() error {
	var first error
	for _, name := range s.Names() {
		if err := s.Tenant(name).db.Close(); err != nil && first == nil {
			first = fmt.Errorf("serve: close tenant %s: %w", name, err)
		}
	}
	return first
}

// countingWriter counts response bytes for lsdb_http_bytes_out_total.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

// handle serves routes[i] with tenant resolution, admission control,
// the ?min_lsn= gate, the method check and the tenant's HTTP metrics:
// per-endpoint request counter and latency histogram, the inflight
// gauge, byte counters both ways. The URL query is parsed once, here.
//
// The admission slot, and with it the inflight gauge, is held until
// the handler returns, not until the client has the response: a body
// larger than net/http's write buffer starts to arrive while its
// handler is still writing, so a client that goes on before reading
// to EOF can see its own previous request in flight. The gauge is
// therefore ≥1 during a scrape (the scrape counts itself), exactly 1
// once every earlier response was read to EOF (net/http ends the body
// only after the handler has returned), and 0 after drain.
func (s *Server) handle(i int) http.HandlerFunc {
	rt := &routes[i]
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		name := q.Get("db")
		if name == "" {
			name = DefaultTenant
		}
		// The tenant map is frozen once the mux exists: a lock-free read.
		t := s.tenants[name]
		if t == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no such database %q", q.Get("db")))
			return
		}
		release, retry, ok := t.admit(i)
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("tenant %s over in-flight quota (%d)", t.name, t.quotas.MaxInflight))
			return
		}
		defer release()
		if s.admitHook != nil {
			s.admitHook(t.name, rt.endpoint)
		}
		em := &t.ep[i]
		if r.ContentLength > 0 {
			t.bytesIn.Add(uint64(r.ContentLength))
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		if (rt.exempt || gateMinLSN(t, cw, q)) && allowMethods(cw, r, rt.methods) {
			if rt.read != nil {
				status, body := rt.read(t, &params{Values: q})
				writeJSON(cw, status, body)
			} else {
				rt.handle(t, cw, r)
			}
		}
		em.latency.Observe(time.Since(start).Nanoseconds())
		em.requests.Inc()
		t.bytesOut.Add(uint64(cw.n))
	}
}

// gateMinLSN enforces read-your-writes: a request carrying ?min_lsn=
// only runs once the tenant's state covers that LSN. On a follower
// the request waits up to the configured bound for replication to
// catch up; on a primary or standalone tenant the appended LSN is
// checked directly. A request the watermark cannot satisfy is
// answered 412 Precondition Failed with the current LSN (JSON body
// and X-Lsdb-Lsn header), so the client can retry against another
// replica or fall back to the primary. Returns false when it wrote
// the response itself.
func gateMinLSN(t *Tenant, w http.ResponseWriter, q url.Values) bool {
	ms := q.Get("min_lsn")
	if ms == "" {
		return true
	}
	min, err := strconv.ParseUint(ms, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("min_lsn must be a non-negative integer"))
		return false
	}
	var cur uint64
	ok := true
	if f := t.follower; f != nil {
		cur, ok = f.WaitLSN(min, t.replWait)
	} else {
		cur = t.db.LSN()
		ok = cur >= min
	}
	if !ok {
		t.stale.Inc()
		w.Header().Set("X-Lsdb-Lsn", strconv.FormatUint(cur, 10))
		writeJSON(w, http.StatusPreconditionFailed, map[string]any{
			"error": fmt.Sprintf("replica at LSN %d, request requires %d", cur, min),
			"lsn":   cur,
		})
		return false
	}
	return true
}

// allowMethods answers any method outside methods with 405 and an
// Allow header, and reports whether the request may go on.
func allowMethods(w http.ResponseWriter, r *http.Request, methods []string) bool {
	if slices.Contains(methods, r.Method) {
		return true
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", strings.Join(methods, " or ")))
	return false
}

// Mux wires the routes table and freezes the tenant set; tests serve
// the same mux the daemon runs. Every route is instrumented in the
// resolved tenant's registry; /metrics observes its own scrapes too.
// /tenants is server-level (no tenant context, no metrics).
func (s *Server) Mux() *http.ServeMux {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()

	mux := http.NewServeMux()
	for i := range routes {
		mux.HandleFunc(routes[i].path, s.handle(i))
	}
	mux.HandleFunc("/tenants", s.tenantsHandler)
	if s.pprof {
		// net/http/pprof self-registers on DefaultServeMux at import;
		// the daemon never serves that mux, so the profile endpoints
		// exist only when mounted here explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// tenantsHandler lists every tenant with its size, quotas and live
// admission state — the discovery endpoint lsdb-load uses.
func (s *Server) tenantsHandler(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, onlyGET) {
		return
	}
	type tenantJSON struct {
		Name     string `json:"name"`
		Stored   int    `json:"stored"`
		Inflight int64  `json:"inflight"`
		Rejected uint64 `json:"rejected"`
		Quotas   Quotas `json:"quotas"`
	}
	var out []tenantJSON
	for _, name := range s.Names() {
		t := s.Tenant(name)
		out = append(out, tenantJSON{
			Name:     t.name,
			Stored:   t.db.Len(),
			Inflight: t.inflight.Value(),
			Rejected: t.RejectedTotal(),
			Quotas:   t.quotas,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

// metricsHandler serves the tenant's whole registry in Prometheus
// text exposition format. Scraping is read-only: every gauge behind
// the registry reads published state (the closure gauge never
// triggers a build).
func metricsHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := t.db.Metrics().WritePrometheus(w); err != nil {
		logf("serve: write metrics: %v", err)
	}
}
