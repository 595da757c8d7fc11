package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/serve"
)

// scrape fetches /metrics and returns the sample lines (comments
// stripped) keyed by series, e.g. `lsdb_http_requests_total{endpoint="query"}`.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("unexpected comment line: %q", line)
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		val, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[m[1]] = val
	}
	return out
}

// TestMetricsEndpoint pins that /metrics serves well-formed Prometheus
// text covering every subsystem: store, WAL-less durability gauges,
// rules, subgoal cache, and the HTTP layer itself.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)

	// Generate some work first: a query, a navigation, a traced derive.
	for _, path := range []string{
		"/query?q=" + escape("(JOHN, FAVORITE-MUSIC, ?p)"),
		"/query?q=" + escape("(JOHN, FAVORITE-MUSIC, ?p)"),
		"/navigate?entity=JOHN",
		"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&trace=1",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		// Read to EOF: the inflight gauge counts handlers that have not
		// returned, and a body past net/http's write buffer (the traced
		// derive) reaches the client while its handler is still
		// writing. EOF is only sent after the handler has returned.
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	samples := scrape(t, srv.URL)

	// Subsystem coverage: at least one series from each layer.
	for _, want := range []string{
		`lsdb_store_facts`,
		`lsdb_store_commits_total`,
		`lsdb_rules_rebuilds_total{kind="full"}`,
		`lsdb_subgoal_hits_total`,
		`lsdb_subgoal_misses_total`,
		`lsdb_closure_facts`,
		`lsdb_index_posting_bytes`,
		`lsdb_index_buckets`,
		`lsdb_index_seal_ns_count`,
		`lsdb_browse_steps_total{kind="neighborhood"}`,
		`lsdb_query_facts_enumerated_count`,
		`lsdb_query_empty_shortcircuits_total`,
		`lsdb_http_inflight`,
		`lsdb_http_bytes_out_total`,
		`lsdb_http_requests_total{endpoint="query"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("/metrics missing series %s", want)
		}
	}
	if got := samples[`lsdb_http_requests_total{endpoint="query"}`]; got != 2 {
		t.Errorf("query request counter = %g, want 2", got)
	}
	if got := samples[`lsdb_browse_steps_total{kind="neighborhood"}`]; got != 1 {
		t.Errorf("neighborhood counter = %g, want 1", got)
	}
	// The scrape observes itself: every earlier response was read to
	// EOF, so exactly one request (the scrape) is in flight at sampling
	// time. Admission control exempts /metrics from the quota but still
	// counts it on the gauge.
	if got := samples[`lsdb_http_inflight`]; got != 1 {
		t.Errorf("inflight gauge = %g during scrape, want 1", got)
	}
	if got := samples[`lsdb_subgoal_misses_total`]; got == 0 {
		t.Error("traced derive left no subgoal misses")
	}
	// Histograms expose the full cumulative bucket series.
	if _, ok := samples[`lsdb_http_request_ns_count{endpoint="query"}`]; !ok {
		t.Error("missing histogram count for query latency")
	}
	if _, ok := samples[`lsdb_http_request_ns_bucket{endpoint="query",le="+Inf"}`]; !ok {
		t.Error("missing +Inf bucket for query latency")
	}

	// A second scrape observes the first: the scrape itself is counted.
	again := scrape(t, srv.URL)
	if got := again[`lsdb_http_requests_total{endpoint="metrics"}`]; got != 1 {
		t.Errorf("metrics self-count = %g, want 1 (first scrape)", got)
	}
}

// TestStatsReadsRegistry pins the single-source-of-truth rewrite:
// /stats numbers and /metrics numbers must be identical because they
// are the same memory.
func TestStatsReadsRegistry(t *testing.T) {
	srv := testServer(t)
	// Warm the cache through a traced derivation, twice (miss then hit).
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&trace=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var st struct {
		Stored  float64 `json:"stored"`
		Subgoal struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"subgoal_cache"`
		Index struct {
			PostingBytes float64 `json:"posting_bytes"`
			Buckets      float64 `json:"buckets"`
			SealBuilds   float64 `json:"seal_builds"`
		} `json:"index"`
	}
	// Twice: the first call publishes the closure (the stats handler's
	// closure field materializes on a cold database), the second reads
	// the sealed posting index's gauges steady-state.
	for i := 0; i < 2; i++ {
		if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
			t.Fatalf("stats status %d", code)
		}
	}
	samples := scrape(t, srv.URL)
	if st.Stored != samples["lsdb_store_facts"] {
		t.Errorf("stats stored %g != metrics %g", st.Stored, samples["lsdb_store_facts"])
	}
	if st.Subgoal.Hits != samples["lsdb_subgoal_hits_total"] {
		t.Errorf("stats hits %g != metrics %g", st.Subgoal.Hits, samples["lsdb_subgoal_hits_total"])
	}
	if st.Subgoal.Misses != samples["lsdb_subgoal_misses_total"] {
		t.Errorf("stats misses %g != metrics %g", st.Subgoal.Misses, samples["lsdb_subgoal_misses_total"])
	}
	if st.Subgoal.Hits == 0 || st.Subgoal.Misses == 0 {
		t.Errorf("warm derive left hits=%g misses=%g", st.Subgoal.Hits, st.Subgoal.Misses)
	}
	// The index block reflects the published closure's sealed posting
	// index and matches /metrics exactly.
	if st.Index.PostingBytes == 0 || st.Index.Buckets == 0 || st.Index.SealBuilds == 0 {
		t.Errorf("index block empty after closure publish: %+v", st.Index)
	}
	if st.Index.PostingBytes != samples["lsdb_index_posting_bytes"] {
		t.Errorf("stats posting bytes %g != metrics %g",
			st.Index.PostingBytes, samples["lsdb_index_posting_bytes"])
	}
	if st.Index.Buckets != samples["lsdb_index_buckets"] {
		t.Errorf("stats buckets %g != metrics %g", st.Index.Buckets, samples["lsdb_index_buckets"])
	}
	if st.Index.SealBuilds != samples["lsdb_index_seal_builds_total"] {
		t.Errorf("stats seal builds %g != metrics %g",
			st.Index.SealBuilds, samples["lsdb_index_seal_builds_total"])
	}

	// The closure's layers: a write is folded into the next snapshot as
	// a delta over the shared base, no posting index is built for it,
	// and /stats and /metrics agree on the layer sizes.
	resp, err := http.Post(srv.URL+"/facts", "application/json",
		strings.NewReader(`{"s":"JOHN","r":"FAVORITE-MUSIC","t":"LAYER-TEST-OPUS"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var after struct {
		Maint struct {
			Incremental float64 `json:"rebuilds_incremental"`
			Delta       float64 `json:"delta_facts"`
			Tombstones  float64 `json:"tombstones"`
			Folds       float64 `json:"folds"`
		} `json:"closure_maintenance"`
		Index struct {
			SealBuilds float64 `json:"seal_builds"`
		} `json:"index"`
	}
	if code := getJSON(t, srv.URL+"/stats", &after); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	samples = scrape(t, srv.URL)
	if after.Maint.Incremental != 1 || after.Maint.Delta == 0 || after.Maint.Folds != 0 {
		t.Errorf("closure layers after one write: %+v, want 1 incremental rebuild, a delta, no fold", after.Maint)
	}
	if after.Index.SealBuilds != st.Index.SealBuilds {
		t.Errorf("seal builds %g -> %g across a one-fact write, want unchanged", st.Index.SealBuilds, after.Index.SealBuilds)
	}
	if after.Maint.Delta != samples["lsdb_closure_delta_facts"] ||
		after.Maint.Tombstones != samples["lsdb_closure_tombstones"] ||
		after.Maint.Folds != samples["lsdb_closure_folds_total"] {
		t.Errorf("stats closure layers %+v disagree with /metrics (delta %g, tombstones %g, folds %g)", after.Maint,
			samples["lsdb_closure_delta_facts"], samples["lsdb_closure_tombstones"], samples["lsdb_closure_folds_total"])
	}

	// The query block: a join that enumerates facts, then one through a
	// class nobody is in, which ends on the estimate alone.
	for _, q := range []string{"(JOHN, FAVORITE-MUSIC, ?p) & (?p, COMPOSED-BY, ?c)", "(?x, in, NO-SUCH-CLASS) & (?x, COMPOSED-BY, ?c)"} {
		if code := getJSON(t, srv.URL+"/query?q="+escape(q), new(any)); code != 200 {
			t.Fatalf("query %s: status %d", q, code)
		}
	}
	var qs struct {
		Query struct {
			Evals         float64 `json:"evals"`
			Facts         float64 `json:"facts_enumerated"`
			Shortcircuits float64 `json:"empty_shortcircuits"`
		} `json:"query"`
	}
	if code := getJSON(t, srv.URL+"/stats", &qs); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	samples = scrape(t, srv.URL)
	if qs.Query.Evals != 2 || qs.Query.Facts == 0 || qs.Query.Shortcircuits != 1 {
		t.Errorf("query block %+v, want 2 evals, some facts, 1 short-circuit", qs.Query)
	}
	if qs.Query.Evals != samples["lsdb_query_facts_enumerated_count"] ||
		qs.Query.Facts != samples["lsdb_query_facts_enumerated_sum"] ||
		qs.Query.Shortcircuits != samples["lsdb_query_empty_shortcircuits_total"] {
		t.Errorf("stats query block %+v disagrees with /metrics (%g evals, %g facts, %g short-circuits)", qs.Query,
			samples["lsdb_query_facts_enumerated_count"], samples["lsdb_query_facts_enumerated_sum"],
			samples["lsdb_query_empty_shortcircuits_total"])
	}
}

// traceJSON mirrors obs.TraceEvent for decoding endpoint responses.
type traceJSON struct {
	Phase       string      `json:"phase"`
	Pattern     string      `json:"pattern"`
	Depth       int         `json:"depth"`
	Disposition string      `json:"disposition"`
	Facts       int         `json:"facts"`
	StartNs     int64       `json:"start_ns"`
	DurationNs  int64       `json:"duration_ns"`
	Children    []traceJSON `json:"children"`
}

func walkTrace(evs []traceJSON, fn func(traceJSON)) {
	for _, ev := range evs {
		fn(ev)
		walkTrace(ev.Children, fn)
	}
}

// checkSpans validates structural invariants every returned trace must
// satisfy: spans nest (children inside the parent's window), starts
// are monotone within a sibling list, durations are non-negative, and
// dispositions come from the documented taxonomy.
func checkSpans(t *testing.T, evs []traceJSON) {
	t.Helper()
	valid := map[string]bool{
		"": true, obs.DispHit: true, obs.DispMiss: true,
		obs.DispMemo: true, obs.DispCycle: true, obs.DispComputed: true,
	}
	var walk func(parent *traceJSON, list []traceJSON)
	walk = func(parent *traceJSON, list []traceJSON) {
		var prev int64 = -1 << 62
		for i := range list {
			ev := &list[i]
			if ev.DurationNs < 0 {
				t.Errorf("span %s: negative duration %d", ev.Pattern, ev.DurationNs)
			}
			if ev.StartNs < prev {
				t.Errorf("span %s: start %d before elder sibling %d", ev.Pattern, ev.StartNs, prev)
			}
			prev = ev.StartNs
			if parent != nil {
				if ev.StartNs < parent.StartNs ||
					ev.StartNs+ev.DurationNs > parent.StartNs+parent.DurationNs {
					t.Errorf("span %s [%d,+%d] escapes parent %s [%d,+%d]",
						ev.Pattern, ev.StartNs, ev.DurationNs,
						parent.Pattern, parent.StartNs, parent.DurationNs)
				}
			}
			if !valid[ev.Disposition] {
				t.Errorf("span %s: unknown disposition %q", ev.Pattern, ev.Disposition)
			}
			if ev.Phase == "" {
				t.Errorf("span %s: empty phase", ev.Pattern)
			}
			walk(ev, ev.Children)
		}
	}
	walk(nil, evs)
}

// TestDeriveTraceEndpoint pins /derive?trace=1: the response carries a
// nested trace whose dispositions follow the cached-vs-uncached
// oracle — cold derivations record misses, the warm repeat's root is a
// cache hit, and the untraced response shape is unchanged.
func TestDeriveTraceEndpoint(t *testing.T) {
	srv := testServer(t)
	get := func(extra string) (map[string]json.RawMessage, []traceJSON) {
		t.Helper()
		var raw map[string]json.RawMessage
		url := srv.URL + "/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN" + extra
		if code := getJSON(t, url, &raw); code != 200 {
			t.Fatalf("derive status %d", code)
		}
		var evs []traceJSON
		if tr, ok := raw["trace"]; ok {
			if err := json.Unmarshal(tr, &evs); err != nil {
				t.Fatalf("trace decode: %v", err)
			}
		}
		return raw, evs
	}

	// Untraced: no trace key at all.
	raw, evs := get("")
	if _, ok := raw["trace"]; ok {
		t.Error("untraced derive response contains a trace")
	}
	var holds bool
	json.Unmarshal(raw["holds"], &holds)
	if !holds {
		t.Fatal("derivable fact reported as not holding")
	}

	// Cold trace: subgoal spans present, dispositions legal, at least
	// one miss (the cache has never seen these subgoals).
	_, evs = get("&trace=1")
	if len(evs) == 0 {
		t.Fatal("traced derive returned no spans")
	}
	checkSpans(t, evs)
	var misses, hits int
	walkTrace(evs, func(ev traceJSON) {
		switch ev.Disposition {
		case obs.DispMiss:
			misses++
		case obs.DispHit:
			hits++
		}
	})
	if misses == 0 {
		t.Error("cold trace has no miss spans")
	}

	// Warm trace: the root subgoal is now cached; the oracle demands a
	// hit disposition and zero misses.
	_, evs = get("&trace=1")
	checkSpans(t, evs)
	misses, hits = 0, 0
	walkTrace(evs, func(ev traceJSON) {
		switch ev.Disposition {
		case obs.DispMiss:
			misses++
		case obs.DispHit:
			hits++
		}
	})
	if misses != 0 {
		t.Errorf("warm trace has %d miss spans, want 0", misses)
	}
	if hits == 0 {
		t.Error("warm trace has no hit spans")
	}

	// Bad depth is rejected.
	resp, err := http.Get(srv.URL + "/derive?s=A&r=B&t=C&trace=1&depth=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("depth=0: status %d, want 400", resp.StatusCode)
	}
}

// TestQueryTraceEndpoint pins /query?trace=1: one match span per
// evaluated template, pattern rendered, result shape unchanged.
func TestQueryTraceEndpoint(t *testing.T) {
	srv := testServer(t)
	var got struct {
		True   bool        `json:"true"`
		Tuples [][]string  `json:"tuples"`
		Trace  []traceJSON `json:"trace"`
	}
	code := getJSON(t, srv.URL+"/query?q="+escape("(JOHN, FAVORITE-MUSIC, ?p)")+"&trace=1", &got)
	if code != 200 || !got.True {
		t.Fatalf("status %d, got %+v", code, got)
	}
	if len(got.Tuples) < 3 {
		t.Errorf("tracing changed the answer: tuples = %v", got.Tuples)
	}
	if len(got.Trace) == 0 {
		t.Fatal("no trace spans")
	}
	checkSpans(t, got.Trace)
	found := false
	walkTrace(got.Trace, func(ev traceJSON) {
		if ev.Phase == "match" && strings.Contains(ev.Pattern, "FAVORITE-MUSIC") {
			found = true
			if ev.Facts < 3 {
				t.Errorf("match span reports %d facts, want >= 3", ev.Facts)
			}
		}
	})
	if !found {
		t.Error("no match span for the queried template")
	}
}

// TestPprofGating: the profile endpoints exist only behind SetPprof.
func TestPprofGating(t *testing.T) {
	off := testServer(t)
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("pprof without flag: status %d, want 404", resp.StatusCode)
	}

	s := serve.New()
	s.SetPprof(true)
	if _, err := s.AddTenant(serve.DefaultTenant, dataset.Music(), serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	on := httptest.NewServer(s.Mux())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof with flag: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPByteCounters: request bodies move bytes_in, responses move
// bytes_out.
func TestHTTPByteCounters(t *testing.T) {
	srv := testServer(t)
	body := `{"s":"NEW","r":"LIKES","t":"JAZZ"}`
	resp, err := http.Post(srv.URL+"/facts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	samples := scrape(t, srv.URL)
	if got := samples["lsdb_http_bytes_in_total"]; got != float64(len(body)) {
		t.Errorf("bytes_in = %g, want %d", got, len(body))
	}
	if got := samples["lsdb_http_bytes_out_total"]; got <= 0 {
		t.Errorf("bytes_out = %g, want > 0", got)
	}
	if got := samples[fmt.Sprintf("lsdb_http_requests_total{endpoint=%q}", "facts")]; got != 1 {
		t.Errorf("facts request counter = %g, want 1", got)
	}
}
