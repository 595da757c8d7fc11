package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// fuzzParams are the parameter names the read ops take, trace aside:
// a traced answer carries span durations and never compares equal.
var fuzzParams = []string{"q", "entity", "src", "tgt", "s", "r", "t", "offset", "limit", "k", "preview", "depth"}

// FuzzBatchMatchesSingle: for any op name and parameter values, the
// POST /batch result is the GET's answer — the same status and the
// same canonicalized body — and a name that is no read op is a per-op
// 400 inside a 200 batch. Both run in-process on one mux.
func FuzzBatchMatchesSingle(f *testing.F) {
	f.Add("navigate", "", "JOHN", "", "", "", "", "", "-1", "", "", "", "")
	f.Add("navigate", "", "JOHN", "", "", "", "", "", "", "-1", "", "", "")
	f.Add("navigate", "", "JOHN", "", "", "", "", "", "x", "", "", "", "")
	f.Add("try", "", "JOHN", "", "", "", "", "", "-1", "3", "", "", "")
	f.Add("search", "mozart", "", "", "", "", "", "", "-1", "", "5", "2", "")
	f.Add("derive", "", "", "", "", "PC#9-WAM", "FAVORITE-OF", "JOHN", "", "", "", "", "0")
	f.Add("derive", "", "", "", "", "A", "B", "C", "", "", "", "", "9")
	f.Add("query", "(JOHN, FAVORITE-MUSIC, ?p)", "", "", "", "", "", "", "", "", "", "", "")
	f.Add("probe", "(JOHN, LOWES, ?z)", "", "", "", "", "", "", "", "", "", "", "")
	f.Add("between", "", "", "LEOPOLD", "MOZART", "", "", "", "", "", "", "", "")
	f.Add("check", "", "", "", "", "", "", "", "", "", "", "", "")
	f.Add("stats", "", "", "", "", "", "", "", "", "", "", "", "")

	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, dataset.Music(), serve.Quotas{MaxDepth: 3}); err != nil {
		f.Fatal(err)
	}
	mux := s.Mux()
	ops := serve.ReadOps()
	f.Fuzz(func(t *testing.T, op, q, entity, src, tgt, fs, fr, ft, offset, limit, k, preview, depth string) {
		vals := []string{q, entity, src, tgt, fs, fr, ft, offset, limit, k, preview, depth}
		query := url.Values{}
		batchOp := map[string]string{"op": op}
		for i, v := range vals {
			if !utf8.ValidString(v) {
				return // JSON would carry a different string than the URL
			}
			if v != "" {
				query.Set(fuzzParams[i], v)
				batchOp[fuzzParams[i]] = v
			}
		}
		body, err := json.Marshal(map[string]any{"ops": []any{batchOp}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(string(body))))
		var batch struct {
			Results []struct {
				Status int             `json:"status"`
				Body   json.RawMessage `json:"body"`
			} `json:"results"`
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %s: status %d: %s", body, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Results) != 1 {
			t.Fatalf("batch %s: answer %s (%v)", body, rec.Body, err)
		}
		got := batch.Results[0]
		if !slices.Contains(ops, op) {
			if got.Status != http.StatusBadRequest || !strings.Contains(string(got.Body), "unknown op") {
				t.Fatalf("batch %s: %d %s, want an unknown-op 400", body, got.Status, got.Body)
			}
			return
		}
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/"+op+"?"+query.Encode(), nil))
		if rec.Code != got.Status {
			t.Fatalf("%s: batch status %d, GET status %d", body, got.Status, rec.Code)
		}
		if a, b := canonical(t, rec.Body.Bytes()), canonical(t, got.Body); a != b {
			t.Fatalf("%s: bodies differ\nGET:   %s\nbatch: %s", body, a, b)
		}
	})
}

func canonical(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("body %s: %v", raw, err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
