package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// maxBatchBytes caps a batch request body. Batches are lists of small
// query descriptors, never bulk data, so 4 MiB is generous.
const maxBatchBytes = 1 << 22

// maxBatchOps caps the operations one batch may carry; a bigger batch
// would hold the tenant's snapshot lock (and one admission slot) for
// arbitrarily long.
const maxBatchOps = 256

// batchResult is one operation's outcome: the HTTP status the single
// endpoint would have answered with, and the exact body it would have
// sent. Per-op failures do not fail the batch.
type batchResult struct {
	Status int `json:"status"`
	Body   any `json:"body"`
}

// batchHandler evaluates a list of read operations against one
// snapshot in a single round trip:
//
//	POST /batch {"ops":[{"op":"query","q":"..."}, ...]}
//	→ 200 {"results":[{"status":200,"body":{...}}, ...]}
//
// An op names a read operation of the routes table; its other members
// are that operation's parameters, under the names the GET's query
// uses:
//
//	{"op":"navigate","entity":"JOHN","offset":0,"limit":10}
//	{"op":"derive","s":"JOHN","r":"EARNS","t":"SALARY","trace":true,"depth":2}
//	{"op":"search","q":"mozart salzburg","k":10,"preview":3}
//
// Each result's status and body are byte-identical to what the
// corresponding GET would return, because both run the same read
// function on the same parameters — the property the differential
// oracle in internal/check pins. The batch holds the tenant's
// snapshot read-lock for its whole evaluation, so every operation
// observes the same published closure; mutations on the same tenant
// wait.
func batchHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ops []map[string]any `json:"ops"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	dec.UseNumber() // a number's literal, not its float64
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("ops must not be empty"))
		return
	}
	if len(req.Ops) > maxBatchOps {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d ops exceeds the limit of %d", len(req.Ops), maxBatchOps))
		return
	}

	t.snap.RLock()
	defer t.snap.RUnlock()
	results := make([]batchResult, len(req.Ops))
	for i, op := range req.Ops {
		p := batchParams(op)
		res := &results[i]
		if read := readOps[p.Get("op")]; read != nil {
			res.Status, res.Body = read(t, p)
		} else {
			res.Status, res.Body = badRequest(fmt.Errorf("ops[%d]: unknown op %q", i, p.Get("op")))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// batchParams reads one op object as the query string a GET would
// carry: a JSON string member is its text, a number its literal, a
// boolean "true" or "false", null absent, and an object or array its
// JSON text.
func batchParams(op map[string]any) *params {
	v := make(url.Values, len(op))
	for name, x := range op {
		switch x := x.(type) {
		case nil:
		case string:
			v.Set(name, x)
		case json.Number:
			v.Set(name, x.String())
		case bool:
			v.Set(name, strconv.FormatBool(x))
		default:
			b, _ := json.Marshal(x)
			v.Set(name, string(b))
		}
	}
	return &params{Values: v}
}
