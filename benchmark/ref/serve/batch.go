package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// maxBatchBytes caps a batch request body. Batches are lists of small
// query descriptors, never bulk data, so 4 MiB is generous.
const maxBatchBytes = 1 << 22

// maxBatchOps caps the operations one batch may carry; a bigger batch
// would hold the tenant's snapshot lock (and one admission slot) for
// arbitrarily long.
const maxBatchOps = 256

// batchOp is one operation inside POST /batch. Op selects the kind;
// the remaining fields mirror the single endpoint's query parameters:
//
//	{"op":"query","q":"(?x, in, EMPLOYEE)","trace":false}
//	{"op":"probe","q":"..."}
//	{"op":"navigate","entity":"JOHN","offset":0,"limit":0}
//	{"op":"between","src":"LEOPOLD","tgt":"MOZART"}
//	{"op":"try","entity":"MOZART","offset":0,"limit":0}
//	{"op":"derive","s":"JOHN","r":"EARNS","t":"SALARY","trace":false,"depth":0}
//	{"op":"check"}
//	{"op":"search","q":"mozart salzburg","k":10,"offset":0,"preview":0}
type batchOp struct {
	Op      string `json:"op"`
	Q       string `json:"q,omitempty"`
	Entity  string `json:"entity,omitempty"`
	Src     string `json:"src,omitempty"`
	Tgt     string `json:"tgt,omitempty"`
	S       string `json:"s,omitempty"`
	R       string `json:"r,omitempty"`
	T       string `json:"t,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Offset  int    `json:"offset,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	K       int    `json:"k,omitempty"`
	Preview int    `json:"preview,omitempty"`
}

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
// Each result's status and body are byte-identical to what the
// corresponding single endpoint would return, because both paths run
// the same payload functions (handlers.go) — the property the
// differential oracle in internal/check pins. The batch holds the
// tenant's snapshot read-lock for its whole evaluation, so every
// operation observes the same published closure; mutations on the
// same tenant wait.
func batchHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ops []batchOp `json:"ops"`
	}
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
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
	db := t.db
	results := make([]batchResult, len(req.Ops))
	for i, op := range req.Ops {
		var status int
		var payload any
		switch op.Op {
		case "query":
			status, payload = queryPayload(db, op.Q, op.Trace)
		case "probe":
			status, payload = probePayload(db, op.Q)
		case "navigate":
			status, payload = navigatePayload(db, op.Entity, op.Offset, op.Limit)
		case "between":
			status, payload = betweenPayload(db, op.Src, op.Tgt)
		case "try":
			status, payload = tryPayload(db, op.Entity, op.Offset, op.Limit)
		case "search":
			status, payload = searchPayload(db, op.Q, op.K, op.Offset, op.Preview)
		case "derive":
			status, payload = derivePayload(db, op.S, op.R, op.T, op.Trace, op.Depth, t.quotas.MaxDepth)
		case "check":
			status, payload = checkPayload(db)
		default:
			status = http.StatusBadRequest
			payload = errBody(fmt.Errorf("ops[%d]: unknown op %q", i, op.Op))
		}
		results[i] = batchResult{Status: status, Body: payload}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}
