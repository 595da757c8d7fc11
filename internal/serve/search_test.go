package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	lsdb "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// TestSearchEndpointContract pins the /search HTTP surface: GET-only
// with an Allow header, the standard JSON error shape on every bad
// parameter, and success fields on a good query.
func TestSearchEndpointContract(t *testing.T) {
	srv := testServer(t)
	client := srv.Client()

	for _, tc := range []struct {
		name       string
		method     string
		path       string
		wantStatus int
		wantAllow  string
	}{
		{"post rejected", http.MethodPost, "/search?q=mozart", http.StatusMethodNotAllowed, "GET"},
		{"delete rejected", http.MethodDelete, "/search?q=mozart", http.StatusMethodNotAllowed, "GET"},
		{"missing q", http.MethodGet, "/search", http.StatusBadRequest, ""},
		{"k zero", http.MethodGet, "/search?q=mozart&k=abc", http.StatusBadRequest, ""},
		{"k over cap", http.MethodGet, "/search?q=mozart&k=101", http.StatusBadRequest, ""},
		{"negative offset", http.MethodGet, "/search?q=mozart&offset=-1", http.StatusBadRequest, ""},
		{"offset not a number", http.MethodGet, "/search?q=mozart&offset=x", http.StatusBadRequest, ""},
		{"preview over cap", http.MethodGet, "/search?q=mozart&preview=21", http.StatusBadRequest, ""},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantAllow != "" && resp.Header.Get("Allow") != tc.wantAllow {
			t.Errorf("%s: Allow %q, want %q", tc.name, resp.Header.Get("Allow"), tc.wantAllow)
		}
		if msg, ok := body["error"].(string); !ok || msg == "" {
			t.Errorf("%s: body %v, want the JSON error shape", tc.name, body)
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)

	var got struct {
		Q     string   `json:"q"`
		Terms []string `json:"terms"`
		Total int      `json:"total"`
		K     int      `json:"k"`
		Hits  []struct {
			Entity    string             `json:"entity"`
			Score     float64            `json:"score"`
			Signals   map[string]float64 `json:"signals"`
			ExactName bool               `json:"exact_name"`
			Degree    int                `json:"degree"`
			Preview   *struct {
				Total  int    `json:"total"`
				Entity string `json:"entity"`
				Table  string `json:"table"`
				Out    []any  `json:"out"`
			} `json:"preview"`
		} `json:"hits"`
		IndexVersion float64 `json:"index_version"`
	}
	if st := getJSON(t, srv.URL+"/search?q=mozart&preview=3", &got); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if len(got.Hits) == 0 || got.Hits[0].Entity != "MOZART" || !got.Hits[0].ExactName {
		t.Fatalf("top hit = %+v, want exact-name MOZART", got.Hits)
	}
	if got.Hits[0].Signals["term"] <= 0 || got.Hits[0].Signals["hub"] <= 0 {
		t.Fatalf("top hit signals = %v", got.Hits[0].Signals)
	}
	if got.Hits[0].Preview == nil || got.Hits[0].Preview.Total == 0 {
		t.Fatalf("preview missing on top hit: %+v", got.Hits[0])
	}
	if got.IndexVersion == 0 || got.K != 10 || len(got.Terms) != 1 {
		t.Fatalf("meta fields: version=%v k=%d terms=%v", got.IndexVersion, got.K, got.Terms)
	}
	// Neighbors rank too: LEOPOLD (FATHER-OF MOZART) matches through
	// its fact neighborhood.
	found := false
	for _, h := range got.Hits {
		if h.Entity == "LEOPOLD" {
			found = true
		}
	}
	if !found {
		t.Fatalf("LEOPOLD not among mozart hits: %+v", got.Hits)
	}

	// Unmatchable queries are empty 200s, not errors.
	if st := getJSON(t, srv.URL+"/search?q=zzzzzz", &got); st != http.StatusOK || got.Total != 0 {
		t.Fatalf("unmatched query: status %d total %d", st, got.Total)
	}
}

// TestSearchBatchParity pins batch-vs-single equivalence for the new
// ops: a /batch search (and paginated navigate/try) returns exactly
// the status and body of the single endpoint, because both run the
// same read function.
func TestSearchBatchParity(t *testing.T) {
	srv := testServer(t)

	ops := []map[string]any{
		{"op": "search", "q": "mozart", "k": 5},
		{"op": "search", "q": "john likes", "k": 3, "preview": 2},
		{"op": "search"}, // missing q: per-op 400 inside a 200 batch
		{"op": "navigate", "entity": "JOHN", "offset": 1, "limit": 2},
		{"op": "try", "entity": "JOHN", "offset": 2, "limit": 3},
	}
	singles := []string{
		"/search?q=mozart&k=5",
		"/search?q=" + escape("john likes") + "&k=3&preview=2",
		"/search",
		"/navigate?entity=JOHN&offset=1&limit=2",
		"/try?entity=JOHN&offset=2&limit=3",
	}

	buf, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Results []struct {
			Status int `json:"status"`
			Body   any `json:"body"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(ops) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(ops))
	}
	for i, single := range singles {
		var want any
		st := getJSON(t, srv.URL+single, &want)
		if batch.Results[i].Status != st {
			t.Errorf("op %d: batch status %d, single %d", i, batch.Results[i].Status, st)
		}
		if !reflect.DeepEqual(batch.Results[i].Body, want) {
			t.Errorf("op %d: batch body %v\nwant %v", i, batch.Results[i].Body, want)
		}
	}
}

// TestSearchAdmission verifies /search is quota-governed: with the
// in-flight cap full, a search is rejected 429 with Retry-After and
// the JSON error shape, and admitted again once the tenant drains.
func TestSearchAdmission(t *testing.T) {
	db := dataset.Music()
	s := serve.New()
	tenant, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The hook runs after admission, so a receive from admitted means a
	// search holds the tenant's one slot; it parks there until gate closes.
	admitted := make(chan struct{}, 3)
	gate := make(chan struct{})
	s.SetAdmitHook(func(_, endpoint string) {
		if endpoint == "search" {
			admitted <- struct{}{}
			<-gate
		}
	})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/search?q=mozart")
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-admitted:
	case st := <-first:
		t.Fatalf("first search finished with %d before it was parked", st)
	}
	if n := tenant.Inflight(); n != 1 {
		t.Fatalf("inflight = %d, want 1", n)
	}

	resp, err := http.Get(srv.URL + "/search?q=mozart")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota search: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if msg, ok := body["error"].(string); !ok || msg == "" {
		t.Fatalf("429 body %v, want JSON error shape", body)
	}
	if tenant.RejectedTotal() != 1 {
		t.Fatalf("rejected = %d, want 1", tenant.RejectedTotal())
	}

	close(gate)
	if st := <-first; st != http.StatusOK {
		t.Fatalf("parked search finished %d, want 200", st)
	}
	resp2, err := http.Get(srv.URL + "/search?q=mozart")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain search: status %d, want 200", resp2.StatusCode)
	}
}

// TestSearchTenantIsolation pins that search state — results, index,
// metrics — never leaks across tenants sharing one server.
func TestSearchTenantIsolation(t *testing.T) {
	music := dataset.Music()
	zoo := lsdb.New()
	zoo.MustAssert("ZEBRA", "in", "ANIMAL")
	zoo.MustAssert("ZEBRA", "LIVES-IN", "SAVANNA")

	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, music, serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("zoo", zoo, serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	var def, zooRes struct {
		Total int `json:"total"`
		Hits  []struct {
			Entity string `json:"entity"`
		} `json:"hits"`
	}
	if st := getJSON(t, srv.URL+"/search?q=zebra", &def); st != http.StatusOK || def.Total != 0 {
		t.Fatalf("default tenant sees zebra: status %d total %d", st, def.Total)
	}
	if st := getJSON(t, srv.URL+"/search?q=zebra&db=zoo", &zooRes); st != http.StatusOK || zooRes.Total == 0 {
		t.Fatalf("zoo tenant misses zebra: status %d total %d", st, zooRes.Total)
	}
	if zooRes.Hits[0].Entity != "ZEBRA" {
		t.Fatalf("zoo top hit = %+v", zooRes.Hits)
	}

	// Each tenant's registry counted exactly its own queries, in its
	// own per-endpoint series.
	if got := zoo.Metrics().Value("lsdb_search_queries_total"); got != 1 {
		t.Fatalf("zoo search queries = %v, want 1", got)
	}
	if got := music.Metrics().Value("lsdb_search_queries_total"); got != 1 {
		t.Fatalf("music search queries = %v, want 1", got)
	}
	if got := zoo.Metrics().Value("lsdb_http_requests_total", "endpoint", "search"); got != 1 {
		t.Fatalf("zoo search requests = %v, want 1", got)
	}
}

// flattenNav reproduces the stable pagination order of a /navigate
// response: classes, then outgoing entities, then incoming entities.
func flattenNav(body navBody) []string {
	var out []string
	out = append(out, body.Classes...)
	for _, g := range body.Out {
		out = append(out, g.Entities...)
	}
	for _, g := range body.In {
		out = append(out, g.Entities...)
	}
	return out
}

type navBody struct {
	Classes []string `json:"classes"`
	Out     []struct {
		Rel      string   `json:"rel"`
		Entities []string `json:"entities"`
	} `json:"out"`
	In []struct {
		Rel      string   `json:"rel"`
		Entities []string `json:"entities"`
	} `json:"in"`
	Total  int `json:"total"`
	Offset int `json:"offset"`
}

// TestNavigatePagination walks a large neighborhood in fixed-size
// pages and checks the pages reassemble the unpaginated answer exactly
// — the stable-ordering contract — with a constant total count.
func TestNavigatePagination(t *testing.T) {
	srv := testServer(t)

	var full navBody
	if st := getJSON(t, srv.URL+"/navigate?entity=JOHN", &full); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	want := flattenNav(full)
	if full.Total != len(want) || full.Total < 10 {
		t.Fatalf("total = %d, flat = %d; need a big neighborhood", full.Total, len(want))
	}

	const limit = 3
	var got []string
	for off := 0; off < full.Total; off += limit {
		var page navBody
		if st := getJSON(t, srv.URL+fmt.Sprintf("/navigate?entity=JOHN&offset=%d&limit=%d", off, limit), &page); st != http.StatusOK {
			t.Fatalf("page at %d: status %d", off, st)
		}
		if page.Total != full.Total {
			t.Fatalf("page total = %d, want %d", page.Total, full.Total)
		}
		flat := flattenNav(page)
		if len(flat) > limit {
			t.Fatalf("page at %d has %d entries, limit %d", off, len(flat), limit)
		}
		got = append(got, flat...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pages reassemble to %v\nwant %v", got, want)
	}

	// Past-the-end pages are empty with the total intact.
	var empty navBody
	if st := getJSON(t, srv.URL+"/navigate?entity=JOHN&offset=10000&limit=5", &empty); st != http.StatusOK {
		t.Fatalf("past-end status %d", st)
	}
	if len(flattenNav(empty)) != 0 || empty.Total != full.Total {
		t.Fatalf("past-end page = %+v", empty)
	}

	// Bad pagination parameters get the JSON error shape.
	for _, bad := range []string{"offset=-1", "limit=x", "offset=1.5"} {
		var body map[string]any
		if st := getJSON(t, srv.URL+"/navigate?entity=JOHN&"+bad, &body); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, st)
		}
		if msg, ok := body["error"].(string); !ok || msg == "" {
			t.Fatalf("%s: body %v", bad, body)
		}
	}
}

// TestTryPagination does the same walk for /try, whose fact list is
// already (s, r, t)-name sorted.
func TestTryPagination(t *testing.T) {
	srv := testServer(t)
	type tryBody struct {
		Facts []map[string]string `json:"facts"`
		Total int                 `json:"total"`
	}
	var full tryBody
	if st := getJSON(t, srv.URL+"/try?entity=JOHN", &full); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if full.Total != len(full.Facts) || full.Total < 8 {
		t.Fatalf("total = %d, facts = %d", full.Total, len(full.Facts))
	}
	const limit = 4
	var got []map[string]string
	for off := 0; off < full.Total; off += limit {
		var page tryBody
		if st := getJSON(t, srv.URL+fmt.Sprintf("/try?entity=JOHN&offset=%d&limit=%d", off, limit), &page); st != http.StatusOK {
			t.Fatalf("page at %d: status %d", off, st)
		}
		if page.Total != full.Total || len(page.Facts) > limit {
			t.Fatalf("page at %d: %+v", off, page)
		}
		got = append(got, page.Facts...)
	}
	if !reflect.DeepEqual(got, full.Facts) {
		t.Fatalf("pages reassemble to %v\nwant %v", got, full.Facts)
	}
}
