package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

func postBatch(t *testing.T, url, body string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

type batchResultJSON struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

func decodeResults(t *testing.T, raw map[string]json.RawMessage) []batchResultJSON {
	t.Helper()
	var results []batchResultJSON
	if err := json.Unmarshal(raw["results"], &results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestBatchEndpoint: a mixed batch answers every op kind with the
// status the single endpoint would give, in order.
func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	code, raw := postBatch(t, srv.URL, `{"ops":[
		{"op":"query","q":"(JOHN, FAVORITE-MUSIC, ?p)"},
		{"op":"navigate","entity":"JOHN"},
		{"op":"between","src":"LEOPOLD","tgt":"MOZART"},
		{"op":"try","entity":"MOZART"},
		{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN"},
		{"op":"check"},
		{"op":"probe","q":"(JOHN, LOWES, ?z)"},
		{"op":"query"}
	]}`)
	if code != 200 {
		t.Fatalf("batch status %d", code)
	}
	results := decodeResults(t, raw)
	if len(results) != 8 {
		t.Fatalf("%d results, want 8", len(results))
	}
	for i, want := range []int{200, 200, 200, 200, 200, 200, 200, 400} {
		if results[i].Status != want {
			t.Errorf("results[%d].status = %d, want %d", i, results[i].Status, want)
		}
	}

	// Spot-check one body: the query result decodes to the usual shape.
	var q struct {
		True   bool       `json:"true"`
		Tuples [][]string `json:"tuples"`
	}
	if err := json.Unmarshal(results[0].Body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.True || len(q.Tuples) < 3 {
		t.Errorf("batched query = %+v", q)
	}
	// The failing op carries the standard JSON error shape.
	var e map[string]string
	if err := json.Unmarshal(results[7].Body, &e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Error("failed op body has no error field")
	}
	// The derive op matches the single endpoint's classification.
	var d struct {
		Holds  bool   `json:"holds"`
		Source string `json:"source"`
		Rule   string `json:"rule"`
	}
	if err := json.Unmarshal(results[4].Body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Holds || d.Source != "derived" || d.Rule != "inversion" {
		t.Errorf("batched derive = %+v", d)
	}
}

// TestBatchMatchesSingle: for each op kind, the batch result's status
// and body are the single endpoint's, errors included. The rows after
// check are bad numbers a batch must reject per op exactly as GET
// does: a negative offset or limit, an explicit depth 0, and a value
// that is no number at all. The full
// randomized differential oracle lives in internal/check; this is the
// deterministic fixture version.
func TestBatchMatchesSingle(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		single string
		op     string
	}{
		{"/query?q=" + escape("(JOHN, FAVORITE-MUSIC, ?p)"), `{"op":"query","q":"(JOHN, FAVORITE-MUSIC, ?p)"}`},
		{"/probe?q=" + escape("(JOHN, LOWES, ?z)"), `{"op":"probe","q":"(JOHN, LOWES, ?z)"}`},
		{"/navigate?entity=JOHN", `{"op":"navigate","entity":"JOHN"}`},
		{"/between?src=LEOPOLD&tgt=MOZART", `{"op":"between","src":"LEOPOLD","tgt":"MOZART"}`},
		{"/try?entity=MOZART", `{"op":"try","entity":"MOZART"}`},
		{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN"}`},
		{"/check", `{"op":"check"}`},

		{"/navigate?entity=JOHN&offset=-1", `{"op":"navigate","entity":"JOHN","offset":-1}`},
		{"/navigate?entity=JOHN&limit=-1", `{"op":"navigate","entity":"JOHN","limit":-1}`},
		{"/try?entity=JOHN&offset=-1", `{"op":"try","entity":"JOHN","offset":-1}`},
		{"/try?entity=JOHN&limit=-1", `{"op":"try","entity":"JOHN","limit":-1}`},
		{"/search?q=mozart&offset=-1", `{"op":"search","q":"mozart","offset":-1}`},
		{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&trace=1&depth=0", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN","trace":true,"depth":0}`},
		{"/navigate?entity=JOHN&offset=x", `{"op":"navigate","entity":"JOHN","offset":"x"}`},
	}
	for _, c := range cases {
		var single json.RawMessage
		status := getJSON(t, srv.URL+c.single, &single)
		code, raw := postBatch(t, srv.URL, fmt.Sprintf(`{"ops":[%s]}`, c.op))
		if code != 200 {
			t.Errorf("batch %s: status %d, want 200", c.op, code)
			continue
		}
		results := decodeResults(t, raw)
		if len(results) != 1 {
			t.Fatalf("batch %s: %d results, want 1", c.op, len(results))
		}
		if results[0].Status != status {
			t.Errorf("batch %s: status %d, single status %d\nbatch body: %s", c.op, results[0].Status, status, results[0].Body)
			continue
		}
		// Compare canonicalized JSON (decode + re-encode both sides).
		var a, b any
		if err := json.Unmarshal(single, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(results[0].Body, &b); err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("%s: single and batched bodies differ\nsingle: %s\nbatch:  %s", c.op, ja, jb)
		}
	}
}

// TestBatchValidation: malformed batches are rejected whole.
func TestBatchValidation(t *testing.T) {
	srv := testServer(t)

	if code, _ := postBatch(t, srv.URL, `{"ops":[]}`); code != 400 {
		t.Errorf("empty ops: status %d", code)
	}
	if code, _ := postBatch(t, srv.URL, `not json`); code != 400 {
		t.Errorf("bad json: status %d", code)
	}

	var sb strings.Builder
	sb.WriteString(`{"ops":[`)
	for i := 0; i < 257; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"op":"check"}`)
	}
	sb.WriteString(`]}`)
	if code, _ := postBatch(t, srv.URL, sb.String()); code != 400 {
		t.Errorf("oversized batch: status %d", code)
	}

	resp, err := http.Get(srv.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /batch: status %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestBatchDepthQuota: the tenant's inference-depth quota applies to
// batched derive ops exactly as to single requests.
func TestBatchDepthQuota(t *testing.T) {
	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, dataset.Music(), serve.Quotas{MaxDepth: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	code, raw := postBatch(t, srv.URL, `{"ops":[
		{"op":"derive","s":"A","r":"B","t":"C","trace":true,"depth":3},
		{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN","trace":true,"depth":2}
	]}`)
	if code != 200 {
		t.Fatalf("batch status %d", code)
	}
	results := decodeResults(t, raw)
	if results[0].Status != 400 {
		t.Errorf("over-quota depth in batch: status %d, want 400", results[0].Status)
	}
	if results[1].Status != 200 {
		t.Errorf("at-quota depth in batch: status %d, want 200", results[1].Status)
	}
}
