package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"

	"repro/internal/gen"
	"repro/internal/serve"
)

// batchProbeLimit caps how many single-endpoint probes the oracle
// derives from one world; the batch carries all of them at once.
const batchProbeLimit = 40

// batchVsSingle is the serving-layer differential oracle: it stands a
// multi-tenant HTTP server over the world's database and requires
// that POST /batch of N read operations answers exactly what the N
// single-endpoint requests answer — same status, same body — against
// the same snapshot. Both paths run the same payload functions inside
// internal/serve, so a divergence is a real serving bug: a handler
// consuming shared state, an encoder applied on one path only, or a
// batch evaluation observing a different snapshot.
//
// All probe operations are untraced: traces carry wall-clock
// timestamps and durations, which never compare equal.
func batchVsSingle(w *gen.World, _ Options) error {
	db := w.Build()
	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{}); err != nil {
		return fmt.Errorf("add tenant: %v", err)
	}
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	// One probe fan per distinct asserted fact, sampled evenly across
	// the program, plus a trailing consistency check. Each probe names
	// the single endpoint's URL and the equivalent batch op.
	type probe struct {
		path string
		op   map[string]any
	}
	var probes []probe
	seen := make(map[[3]string]bool)
	var facts [][3]string
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
	step := len(facts)/8 + 1
	for i := 0; i < len(facts) && len(probes) < batchProbeLimit-1; i += step {
		fs, fr, ft := facts[i][0], facts[i][1], facts[i][2]
		q := fmt.Sprintf("(%s, %s, ?x)", fs, fr)
		probes = append(probes,
			probe{"/query?q=" + url.QueryEscape(q),
				map[string]any{"op": "query", "q": q}},
			probe{"/derive?" + url.Values{"s": {fs}, "r": {fr}, "t": {ft}}.Encode(),
				map[string]any{"op": "derive", "s": fs, "r": fr, "t": ft}},
			probe{"/navigate?entity=" + url.QueryEscape(fs),
				map[string]any{"op": "navigate", "entity": fs}},
			probe{"/try?entity=" + url.QueryEscape(ft),
				map[string]any{"op": "try", "entity": ft}},
			probe{"/between?" + url.Values{"src": {fs}, "tgt": {ft}}.Encode(),
				map[string]any{"op": "between", "src": fs, "tgt": ft}},
			probe{"/probe?q=" + url.QueryEscape(q),
				map[string]any{"op": "probe", "q": q}},
		)
	}
	probes = append(probes, probe{"/check", map[string]any{"op": "check"}})

	// Single-endpoint pass.
	type answer struct {
		status int
		body   json.RawMessage
	}
	singles := make([]answer, len(probes))
	for i, p := range probes {
		resp, err := http.Get(srv.URL + p.path)
		if err != nil {
			return fmt.Errorf("GET %s: %v", p.path, err)
		}
		var body json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET %s: decode: %v", p.path, err)
		}
		singles[i] = answer{resp.StatusCode, body}
	}

	// Batched pass: every probe in one POST /batch.
	ops := make([]map[string]any, len(probes))
	for i, p := range probes {
		ops[i] = p.op
	}
	payload, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return fmt.Errorf("marshal batch: %v", err)
	}
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("POST /batch: %v", err)
	}
	var batch struct {
		Results []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("POST /batch: decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /batch: status %d", resp.StatusCode)
	}
	if len(batch.Results) != len(probes) {
		return fmt.Errorf("batch returned %d results for %d ops", len(batch.Results), len(probes))
	}

	// Pairwise comparison on canonicalized JSON (decode + re-encode
	// normalizes formatting on both sides; key order from Go maps is
	// already deterministic under encoding/json).
	for i, p := range probes {
		got := batch.Results[i]
		want := singles[i]
		if got.Status != want.status {
			return fmt.Errorf("op %d (%s): batch status %d, single status %d", i, p.path, got.Status, want.status)
		}
		cGot, err := canonicalJSON(got.Body)
		if err != nil {
			return fmt.Errorf("op %d (%s): batch body: %v", i, p.path, err)
		}
		cWant, err := canonicalJSON(want.body)
		if err != nil {
			return fmt.Errorf("op %d (%s): single body: %v", i, p.path, err)
		}
		if cGot != cWant {
			return fmt.Errorf("op %d (%s): bodies diverge\nsingle: %s\nbatch:  %s", i, p.path, cWant, cGot)
		}
	}
	return nil
}

// canonicalJSON decodes and re-encodes a JSON value so semantically
// equal documents compare equal as strings.
func canonicalJSON(raw json.RawMessage) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	out, err := json.Marshal(v)
	return string(out), err
}
