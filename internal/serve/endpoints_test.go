package serve_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestEndpointMethodInvariants is the table-driven daemon contract:
// every endpoint rejects wrong methods with 405 plus an accurate
// Allow header, and every error body is the standard JSON shape
// ({"error": "..."}). Every route of serve's routes table must have a
// case here.
func TestEndpointMethodInvariants(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path   string
		method string // a disallowed method to try
		allow  string // expected Allow header
	}{
		{"/query", http.MethodPost, "GET"},
		{"/probe", http.MethodPost, "GET"},
		{"/navigate", http.MethodPost, "GET"},
		{"/between", http.MethodPost, "GET"},
		{"/try", http.MethodPost, "GET"},
		{"/derive", http.MethodPost, "GET"},
		{"/check", http.MethodPost, "GET"},
		{"/stats", http.MethodPost, "GET"},
		{"/metrics", http.MethodPost, "GET"},
		{"/healthz", http.MethodPost, "GET"},
		{"/tenants", http.MethodPost, "GET"},
		{"/query", http.MethodDelete, "GET"},
		{"/batch", http.MethodGet, "POST"},
		{"/batch", http.MethodDelete, "POST"},
		{"/facts", http.MethodPut, "POST, DELETE"},
		{"/facts", http.MethodGet, "POST, DELETE"},
		{"/search", http.MethodPost, "GET"},
		{"/repl/wal", http.MethodPost, "GET"},
		{"/repl/snapshot", http.MethodPost, "GET"},
		{"/recover-log", http.MethodGet, "POST"},
	}
	covered := make(map[string]bool)
	for _, c := range cases {
		covered[c.path] = true
	}
	for _, path := range serve.RoutePaths() {
		if !covered[path] {
			t.Errorf("route %s has no case here", path)
		}
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 405 {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, allow, c.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: error content type %q", c.method, c.path, ct)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Errorf("%s %s: error body not JSON: %v", c.method, c.path, err)
		} else if body["error"] == "" {
			t.Errorf("%s %s: error body missing error field", c.method, c.path)
		}
		resp.Body.Close()
	}
}

// TestBodyLimits: request bodies past the MaxBytesReader caps are
// rejected, not buffered.
func TestBodyLimits(t *testing.T) {
	srv := testServer(t)

	// /facts caps bodies at 1 MiB.
	big := `{"s":"PAD","r":"in","t":"` + strings.Repeat("X", 1<<20) + `"}`
	resp, err := http.Post(srv.URL+"/facts", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized /facts body: status %d, want 400", resp.StatusCode)
	}

	// /batch caps bodies at 4 MiB.
	bigBatch := `{"ops":[{"op":"query","q":"` + strings.Repeat("Y", 1<<22) + `"}]}`
	resp, err = http.Post(srv.URL+"/batch", "application/json", strings.NewReader(bigBatch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized /batch body: status %d, want 400", resp.StatusCode)
	}
}

// TestErrorShapes: representative 4xx responses from every handler
// family carry the standard JSON error shape, on GET and, for each
// read op that can fail, inside a POST /batch.
func TestErrorShapes(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{
		"/query",                  // missing q
		"/probe",                  // missing q
		"/navigate",               // missing entity
		"/between?src=X",          // missing tgt
		"/try",                    // missing entity
		"/derive?s=ONLY",          // missing r, t
		"/query?db=ghost&q=x",     // unknown tenant
		"/derive?trace=1&depth=0", // bad depth (and missing s/r/t)
		"/search",                 // missing q
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("GET %s: status %d, want 4xx", path, resp.StatusCode)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Errorf("GET %s: error body not JSON: %v", path, err)
		} else if body["error"] == "" {
			t.Errorf("GET %s: error body missing error field", path)
		}
		resp.Body.Close()
	}

	// One batch error per read op that can fail (check takes no
	// parameter and cannot).
	for _, op := range []string{
		`{"op":"query","q":"((("}`,                          // parse error
		`{"op":"probe"}`,                                    // missing q
		`{"op":"navigate","entity":"JOHN","limit":-1}`,      // negative limit
		`{"op":"between","tgt":"MOZART"}`,                   // missing src
		`{"op":"try","entity":"JOHN","offset":"x"}`,         // malformed offset
		`{"op":"derive","s":"A","r":"B","t":"C","depth":0}`, // bad depth
		`{"op":"search","q":"mozart","preview":21}`,         // preview over cap
		`{"op":"no-such-op"}`,                               // unknown op
	} {
		code, raw := postBatch(t, srv.URL, `{"ops":[`+op+`]}`)
		if code != 200 {
			t.Fatalf("batch %s: status %d, want 200", op, code)
		}
		res := decodeResults(t, raw)
		if len(res) != 1 || res[0].Status != 400 {
			t.Errorf("batch %s: results %+v, want one 400", op, res)
			continue
		}
		var body map[string]string
		if err := json.Unmarshal(res[0].Body, &body); err != nil || body["error"] == "" {
			t.Errorf("batch %s: error body %s, want the JSON error shape", op, res[0].Body)
		}
	}
}
