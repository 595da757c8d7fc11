package main

// The lsdb-load SLO harness: a multi-tenant load generator that
// builds per-tenant worlds with internal/gen, replays seeded browse
// sessions against lsdbd's HTTP API at a target QPS, and reports
// per-endpoint latency quantiles read back from /metrics histograms —
// the same numbers an operator's scrape would see, not client-side
// stopwatch values.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Tenants is the number of isolated databases to drive (default 3).
	Tenants int
	// Workers is the number of concurrent client workers per tenant
	// (default 4).
	Workers int
	// Duration is the replay length (default 2s).
	Duration time.Duration
	// QPS is the target aggregate request rate across all workers;
	// 0 replays as fast as the server answers.
	QPS float64
	// Seed derives each tenant's world and its workers' op sequences.
	Seed int64
	// BatchSize is the op count of each POST /batch request the
	// session mix issues (default 8).
	BatchSize int
	// MaxInflight, when positive, is applied as each tenant's
	// admission quota, so the run exercises 429s under pressure.
	MaxInflight int
	// BaseURL targets an already-running daemon. Empty starts an
	// in-process server seeded with generated tenant worlds named
	// t0..t{N-1}.
	BaseURL string
	// ReplicaURL switches the run to follower-target mode: reads are
	// served by the replica daemon at this URL while every WriteEvery-th
	// op becomes a POST /facts against BaseURL (the primary), whose
	// commit LSN the worker then demands from the replica via
	// ?min_lsn= — the read-your-writes path. 412 answers are counted
	// in Stale412, separately from errors: a stale replica refusing a
	// fresh read is specified behavior, like a 429 under overload.
	// Requires BaseURL.
	ReplicaURL string
	// WriteEvery is the per-worker op period of primary writes in
	// follower-target mode (default 16).
	WriteEvery int
	// SearchFraction is the share of session ops that are GET /search
	// keyword queries (default 0.15; negative disables search traffic).
	SearchFraction float64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.WriteEvery <= 0 {
		c.WriteEvery = 16
	}
	if c.SearchFraction == 0 {
		c.SearchFraction = 0.15
	}
	if c.SearchFraction < 0 {
		c.SearchFraction = 0
	}
	return c
}

// EndpointLoad is one endpoint's aggregate outcome across tenants.
type EndpointLoad struct {
	// Requests is the served (non-rejected) request count from the
	// lsdb_http_requests_total counters.
	Requests uint64 `json:"requests"`
	// Rejected is the admission-control rejection count.
	Rejected uint64 `json:"rejected"`
	// P50Ms/P95Ms/P99Ms are latency quantiles estimated from the
	// scraped lsdb_http_request_ns histogram buckets, summed across
	// tenants.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// LoadReport is the lsdb-load -json payload.
type LoadReport struct {
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"go_max_procs"`
	Tenants    int     `json:"tenants"`
	Workers    int     `json:"workers_per_tenant"`
	Seed       int64   `json:"seed"`
	TargetQPS  float64 `json:"target_qps"`
	BatchSize  int     `json:"batch_size"`
	// DurationSec is the measured wall-clock run length.
	DurationSec float64 `json:"duration_sec"`
	// Sent counts every client request issued, including rejected and
	// failed ones.
	Sent uint64 `json:"sent"`
	// Throughput is successful (2xx) client requests per second.
	Throughput float64 `json:"throughput_qps"`
	// Rejected429 counts 429 responses (admission control working as
	// specified — not errors).
	Rejected429 uint64 `json:"rejected_429"`
	// Writes counts primary writes issued in follower-target mode.
	Writes uint64 `json:"writes,omitempty"`
	// Stale412 counts replica reads answered 412 Precondition Failed:
	// the replica could not reach the demanded min_lsn within its
	// wait bound. Specified behavior under lag, not an error.
	Stale412 uint64 `json:"stale_412,omitempty"`
	// Errors counts transport failures and non-2xx, non-429, non-412
	// statuses.
	Errors uint64 `json:"errors"`
	// Endpoints maps endpoint name to its aggregate stats.
	Endpoints map[string]EndpointLoad `json:"endpoints"`
	// PerTenant maps tenant name to its served request total, for
	// eyeballing fairness across tenants.
	PerTenant map[string]uint64 `json:"per_tenant_requests"`
}

// loadOp is one step of a seeded browse session.
type loadOp struct {
	method string // GET or POST
	path   string // including query string, without ?db=
	body   string // POST body
}

// sessionOps derives a tenant's replayable browse session from its
// world: queries, navigations, derivations, associations and batches
// over the entities the generator actually asserted.
func sessionOps(w *gen.World, rng *rand.Rand, batchSize int, searchFrac float64) []loadOp {
	var facts [][3]string
	seen := make(map[[3]string]bool)
	for _, op := range w.Ops {
		if op.Kind != gen.OpAssert {
			continue
		}
		tr := [3]string{op.S, op.R, op.T}
		if !seen[tr] {
			seen[tr] = true
			facts = append(facts, tr)
		}
	}
	if len(facts) == 0 {
		facts = [][3]string{{"A", "in", "B"}}
	}
	pick := func() [3]string { return facts[rng.Intn(len(facts))] }

	// searchQ derives a keyword query from asserted entity names: whole
	// names, multi-term mixes, and short prefixes, the shapes a browsing
	// user types at the front door.
	searchQ := func(f [3]string) string {
		switch rng.Intn(3) {
		case 0:
			return f[0]
		case 1:
			return f[0] + " " + f[2]
		default:
			low := strings.ToLower(f[0])
			if len(low) > 3 {
				low = low[:3]
			}
			return low
		}
	}

	const sessionLen = 64
	ops := make([]loadOp, 0, sessionLen)
	for i := 0; i < sessionLen; i++ {
		f := pick()
		if rng.Float64() < searchFrac {
			ops = append(ops, loadOp{"GET", "/search?q=" + url.QueryEscape(searchQ(f)), ""})
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.35:
			q := fmt.Sprintf("(%s, %s, ?x)", f[0], f[1])
			ops = append(ops, loadOp{"GET", "/query?q=" + url.QueryEscape(q), ""})
		case r < 0.55:
			ops = append(ops, loadOp{"GET", "/navigate?entity=" + url.QueryEscape(f[0]), ""})
		case r < 0.70:
			v := url.Values{"s": {f[0]}, "r": {f[1]}, "t": {f[2]}}
			ops = append(ops, loadOp{"GET", "/derive?" + v.Encode(), ""})
		case r < 0.80:
			v := url.Values{"src": {f[0]}, "tgt": {f[2]}}
			ops = append(ops, loadOp{"GET", "/between?" + v.Encode(), ""})
		case r < 0.90:
			ops = append(ops, loadOp{"GET", "/try?entity=" + url.QueryEscape(f[2]), ""})
		default:
			batch := make([]map[string]any, batchSize)
			for j := range batch {
				g := pick()
				switch {
				case searchFrac > 0 && j%3 == 2:
					batch[j] = map[string]any{"op": "search", "q": searchQ(g), "k": 5}
				case j%2 == 0:
					batch[j] = map[string]any{"op": "query", "q": fmt.Sprintf("(%s, %s, ?x)", g[0], g[1])}
				default:
					batch[j] = map[string]any{"op": "derive", "s": g[0], "r": g[1], "t": g[2]}
				}
			}
			body, _ := json.Marshal(map[string]any{"ops": batch})
			ops = append(ops, loadOp{"POST", "/batch", string(body)})
		}
	}
	return ops
}

// RunLoad executes one load run and aggregates the report. With an
// empty BaseURL it stands up an in-process multi-tenant server whose
// tenants t0..t{N-1} each hold a distinct generated world.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if cfg.ReplicaURL != "" && cfg.BaseURL == "" {
		return nil, fmt.Errorf("follower-target mode needs the primary's URL: set BaseURL with ReplicaURL")
	}

	base := cfg.BaseURL
	tenants := make([]string, cfg.Tenants)
	var worlds []*gen.World
	if base == "" {
		s := serve.New()
		for i := range tenants {
			name := fmt.Sprintf("t%d", i)
			tenants[i] = name
			w := gen.Generate(cfg.Seed+int64(i), gen.Medium())
			worlds = append(worlds, w)
			db := w.Build()
			db.ClosureLen() // publish the closure before load arrives
			if _, err := s.AddTenant(name, db, serve.Quotas{MaxInflight: cfg.MaxInflight}); err != nil {
				return nil, err
			}
		}
		srv := httptest.NewServer(s.Mux())
		defer srv.Close()
		base = srv.URL
	} else {
		// External daemon: discover its tenants, drive the first N.
		names, err := discoverTenants(base)
		if err != nil {
			return nil, err
		}
		if len(names) > cfg.Tenants {
			names = names[:cfg.Tenants]
		}
		tenants = names
		cfg.Tenants = len(names)
		for i := range tenants {
			worlds = append(worlds, gen.Generate(cfg.Seed+int64(i), gen.Medium()))
		}
	}

	// Pace to the aggregate QPS target: each worker spaces its
	// requests by totalWorkers/QPS.
	totalWorkers := cfg.Tenants * cfg.Workers
	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(totalWorkers) / cfg.QPS * float64(time.Second))
	}

	// Follower-target mode splits the traffic: reads hit the replica,
	// periodic writes hit the primary, and each worker carries its
	// last commit LSN into its reads as ?min_lsn=.
	readBase := base
	if cfg.ReplicaURL != "" {
		readBase = cfg.ReplicaURL
	}

	var sent, ok2xx, rejected, stale, writes, errs atomic.Uint64
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		for wk := 0; wk < cfg.Workers; wk++ {
			wg.Add(1)
			go func(ti, wk int, tenant string) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*1000 + int64(wk)))
				ops := sessionOps(worlds[ti], rng, cfg.BatchSize, cfg.SearchFraction)
				next := time.Now()
				var lastLSN uint64
				for i := 0; time.Now().Before(deadline); i++ {
					if interval > 0 {
						if d := time.Until(next); d > 0 {
							time.Sleep(d)
						}
						next = next.Add(interval)
					}
					if cfg.ReplicaURL != "" && i%cfg.WriteEvery == cfg.WriteEvery-1 {
						if lsn, ok := primaryWrite(client, base, tenant, &sent, &errs, ti, wk, i); ok {
							lastLSN = lsn
							writes.Add(1)
							ok2xx.Add(1)
						}
						continue
					}
					op := ops[i%len(ops)]
					u := readBase + op.path
					if strings.Contains(op.path, "?") {
						u += "&db=" + tenant
					} else {
						u += "?db=" + tenant
					}
					if cfg.ReplicaURL != "" && lastLSN > 0 {
						u += "&min_lsn=" + strconv.FormatUint(lastLSN, 10)
					}
					var resp *http.Response
					var err error
					sent.Add(1)
					if op.method == "POST" {
						resp, err = client.Post(u, "application/json", bytes.NewReader([]byte(op.body)))
					} else {
						resp, err = client.Get(u)
					}
					if err != nil {
						errs.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode >= 200 && resp.StatusCode < 300:
						ok2xx.Add(1)
					case resp.StatusCode == http.StatusTooManyRequests:
						rejected.Add(1)
					case resp.StatusCode == http.StatusPreconditionFailed:
						stale.Add(1)
					default:
						errs.Add(1)
					}
				}
			}(ti, wk, tenant)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Tenants:     cfg.Tenants,
		Workers:     cfg.Workers,
		Seed:        cfg.Seed,
		TargetQPS:   cfg.QPS,
		BatchSize:   cfg.BatchSize,
		DurationSec: elapsed.Seconds(),
		Sent:        sent.Load(),
		Rejected429: rejected.Load(),
		Writes:      writes.Load(),
		Stale412:    stale.Load(),
		Errors:      errs.Load(),
		Endpoints:   make(map[string]EndpointLoad),
		PerTenant:   make(map[string]uint64),
	}
	if elapsed > 0 {
		rep.Throughput = float64(ok2xx.Load()) / elapsed.Seconds()
	}

	// Read the server-side truth back from each tenant's /metrics and
	// aggregate: requests and rejections sum, histogram buckets sum
	// per le before the quantile estimate (cumulative bucket series
	// are additive across tenants).
	type histAgg struct {
		boundNs []float64
		cum     map[float64]uint64
	}
	hists := make(map[string]*histAgg)
	scrapeURLs := []string{base}
	if cfg.ReplicaURL != "" {
		// Reads were served by the replica, writes by the primary:
		// both registries hold part of the run's truth.
		scrapeURLs = append(scrapeURLs, cfg.ReplicaURL)
	}
	for _, tenant := range tenants {
		served := uint64(0)
		for _, su := range scrapeURLs {
			sc, err := scrapeMetrics(client, su, tenant)
			if err != nil {
				return nil, fmt.Errorf("scrape tenant %s at %s: %w", tenant, su, err)
			}
			for ep, n := range sc.requests {
				e := rep.Endpoints[ep]
				e.Requests += n
				rep.Endpoints[ep] = e
				served += n
			}
			for ep, n := range sc.rejected {
				e := rep.Endpoints[ep]
				e.Rejected += n
				rep.Endpoints[ep] = e
			}
			for ep, buckets := range sc.latency {
				h := hists[ep]
				if h == nil {
					h = &histAgg{cum: make(map[float64]uint64)}
					hists[ep] = h
				}
				for le, c := range buckets {
					h.cum[le] += c
				}
			}
		}
		rep.PerTenant[tenant] = served
	}
	for ep, h := range hists {
		var bounds []float64
		for le := range h.cum {
			bounds = append(bounds, le)
		}
		sort.Float64s(bounds)
		// Split off +Inf (math.Inf sorts last) into the overflow slot.
		cum := make([]uint64, len(bounds))
		for i, le := range bounds {
			cum[i] = h.cum[le]
		}
		finite := bounds
		if len(finite) > 0 && math.IsInf(finite[len(finite)-1], 1) {
			finite = finite[:len(finite)-1]
		}
		e := rep.Endpoints[ep]
		e.P50Ms = obs.QuantileCumulative(0.50, finite, cum) / 1e6
		e.P95Ms = obs.QuantileCumulative(0.95, finite, cum) / 1e6
		e.P99Ms = obs.QuantileCumulative(0.99, finite, cum) / 1e6
		rep.Endpoints[ep] = e
	}
	return rep, nil
}

// primaryWrite posts one unique fact to the primary and returns its
// commit LSN, the worker's next read-your-writes watermark.
func primaryWrite(client *http.Client, base, tenant string, sent, errs *atomic.Uint64, ti, wk, i int) (uint64, bool) {
	body, _ := json.Marshal(map[string]string{
		"s": fmt.Sprintf("LOAD-%d-%d-%d", ti, wk, i),
		"r": "in",
		"t": "LOADGEN",
	})
	sent.Add(1)
	resp, err := client.Post(base+"/facts?db="+tenant, "application/json", bytes.NewReader(body))
	if err != nil {
		errs.Add(1)
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		errs.Add(1)
		return 0, false
	}
	var out struct {
		LSN uint64 `json:"lsn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		errs.Add(1)
		return 0, false
	}
	return out.LSN, true
}

// tenantScrape is one tenant's parsed /metrics series of interest.
type tenantScrape struct {
	requests map[string]uint64             // endpoint -> requests_total
	rejected map[string]uint64             // endpoint -> rejected_total
	latency  map[string]map[float64]uint64 // endpoint -> le(ns) -> cumulative count
}

var (
	reRequests = regexp.MustCompile(`^lsdb_http_requests_total\{endpoint="([^"]+)"\} (\d+)$`)
	reRejected = regexp.MustCompile(`^lsdb_http_rejected_total\{endpoint="([^"]+)"\} (\d+)$`)
	reBucket   = regexp.MustCompile(`^lsdb_http_request_ns_bucket\{endpoint="([^"]+)",le="([^"]+)"\} (\d+)$`)
)

// scrapeMetrics fetches one tenant's /metrics and extracts the HTTP
// request counters and latency histogram buckets.
func scrapeMetrics(client *http.Client, base, tenant string) (*tenantScrape, error) {
	resp, err := client.Get(base + "/metrics?db=" + tenant)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	sc := &tenantScrape{
		requests: make(map[string]uint64),
		rejected: make(map[string]uint64),
		latency:  make(map[string]map[float64]uint64),
	}
	for _, line := range strings.Split(string(body), "\n") {
		if m := reRequests.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseUint(m[2], 10, 64)
			sc.requests[m[1]] = n
			continue
		}
		if m := reRejected.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseUint(m[2], 10, 64)
			sc.rejected[m[1]] = n
			continue
		}
		if m := reBucket.FindStringSubmatch(line); m != nil {
			le := math.Inf(1)
			if m[2] != "+Inf" {
				v, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					continue
				}
				le = v
			}
			n, _ := strconv.ParseUint(m[3], 10, 64)
			b := sc.latency[m[1]]
			if b == nil {
				b = make(map[float64]uint64)
				sc.latency[m[1]] = b
			}
			b[le] = n
		}
	}
	return sc, nil
}

// discoverTenants lists an external daemon's databases via /tenants.
func discoverTenants(base string) ([]string, error) {
	resp, err := http.Get(base + "/tenants")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/tenants status %d", resp.StatusCode)
	}
	var body struct {
		Tenants []struct {
			Name string `json:"name"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Tenants) == 0 {
		return nil, fmt.Errorf("daemon hosts no tenants")
	}
	names := make([]string, len(body.Tenants))
	for i, t := range body.Tenants {
		names[i] = t.Name
	}
	return names, nil
}

// WriteLoadJSON runs the load and writes the report to path.
func WriteLoadJSON(path string, cfg LoadConfig) (*LoadReport, error) {
	rep, err := RunLoad(cfg)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}
