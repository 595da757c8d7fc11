package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"time"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/obs"
	"repro/internal/search"
)

// maxBodyBytes caps mutation request bodies; a single fact is tiny.
const maxBodyBytes = 1 << 20

// defaultTraceDepth bounds the on-demand derivation behind
// /derive?trace=1 when the client does not pass ?depth=N. Depth 4
// covers every rule chain in the paper's examples.
const defaultTraceDepth = 4

func logf(format string, args ...any) { log.Printf(format, args...) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late to change the status line; at least leave a trace.
		logf("serve: encode response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errBody(err))
}

// errBody is the one JSON error shape every endpoint uses.
func errBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

type factJSON struct {
	S string `json:"s"`
	R string `json:"r"`
	T string `json:"t"`
}

// factsHandler is the mutation endpoint. Mutations take the tenant's
// snapshot write-lock so no in-progress batch can observe a half-way
// state (see Tenant.snap).
func factsHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	s := t.db
	if t.follower != nil && (r.Method == http.MethodPost || r.Method == http.MethodDelete) {
		// A replica's state is the primary's log, nothing else: a
		// local write would diverge it permanently.
		writeErr(w, http.StatusForbidden,
			fmt.Errorf("tenant %s is a read-only replica; write to the primary", t.name))
		return
	}
	switch r.Method {
	case http.MethodPost:
		var f factJSON
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := json.NewDecoder(body).Decode(&f); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if f.S == "" || f.R == "" || f.T == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("s, r, t are all required"))
			return
		}
		t.snap.Lock()
		err := s.Assert(f.S, f.R, f.T)
		lsn := s.LSN()
		t.snap.Unlock()
		if err != nil {
			// A durability failure means the write may not survive a
			// crash: that is a server-side error, not a client conflict.
			status := http.StatusConflict
			if errors.Is(err, lsdb.ErrNotDurable) {
				status = http.StatusInternalServerError
			}
			writeErr(w, status, err)
			return
		}
		// lsn is the write's commit LSN: pass it back as ?min_lsn= to
		// a replica for read-your-writes.
		writeJSON(w, http.StatusOK, map[string]any{"stored": s.Len(), "lsn": lsn})
	case http.MethodDelete:
		q := r.URL.Query()
		fs, fr, ft := q.Get("s"), q.Get("r"), q.Get("t")
		if fs == "" || fr == "" || ft == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("s, r, t query params required"))
			return
		}
		u := s.Universe()
		t.snap.Lock()
		ok, err := s.RetractFact(u.NewFact(fs, fr, ft))
		lsn := s.LSN()
		t.snap.Unlock()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"retracted": ok, "lsn": lsn})
	}
}

// params is the one parameter reader of the read operations. It reads
// the URL query of a GET and one op object of POST /batch alike (see
// batchParams), so a missing, malformed or out-of-range value gets
// the same answer on both surfaces. The first malformed number is
// kept in err; an op checks err once after reading its numbers.
type params struct {
	url.Values
	err error
}

// flag reads an optional boolean: absent, "0" and "false" are false,
// any other value is true.
func (p *params) flag(name string) bool {
	switch p.Get(name) {
	case "", "0", "false":
		return false
	}
	return true
}

// num reads an optional integer of at least min (0 or 1); absent is 0.
func (p *params) num(name string, min int) int {
	s := p.Get(name)
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < min {
		if p.err == nil {
			kind := "non-negative"
			if min > 0 {
				kind = "positive"
			}
			p.err = fmt.Errorf("%s must be a %s integer", name, kind)
		}
		return 0
	}
	return n
}

func badRequest(err error) (int, any) {
	return http.StatusBadRequest, errBody(err)
}

// attachTrace closes the trace and adds its spans to the response.
// When the span cap was hit, trace_dropped reports how many events
// are missing so clients never mistake a truncated trace for a
// complete one.
func attachTrace(resp map[string]any, tr *obs.Trace) {
	resp["trace"] = tr.Done()
	if n := tr.Dropped(); n > 0 {
		resp["trace_dropped"] = n
	}
}

// queryOp evaluates ?q= and, with ?trace=1, attaches its evaluation
// trace.
func queryOp(t *Tenant, p *params) (int, any) {
	src := p.Get("q")
	if src == "" {
		return badRequest(fmt.Errorf("q parameter required"))
	}
	var tr *obs.Trace
	if p.flag("trace") {
		tr = obs.NewTrace()
	}
	rows, err := t.db.QueryTraced(src, tr)
	if err != nil {
		return badRequest(err)
	}
	resp := map[string]any{
		"vars":   rows.Vars,
		"tuples": rows.Tuples,
		"true":   rows.True,
	}
	if tr != nil {
		attachTrace(resp, tr)
	}
	return http.StatusOK, resp
}

// probeOp evaluates ?q= with automatic retraction on failure (§5).
func probeOp(t *Tenant, p *params) (int, any) {
	src := p.Get("q")
	if src == "" {
		return badRequest(fmt.Errorf("q parameter required"))
	}
	db := t.db
	out, err := db.Probe(src)
	if err != nil {
		return badRequest(err)
	}
	u := db.Universe()
	type successJSON struct {
		Query   string     `json:"query"`
		Changes []string   `json:"changes"`
		Tuples  [][]string `json:"tuples"`
	}
	var successes []successJSON
	for _, wave := range out.Waves {
		for _, e := range wave.Successes() {
			var changes []string
			for _, c := range e.Changes {
				changes = append(changes, c.Describe(u))
			}
			var tuples [][]string
			for _, tp := range e.Result.Tuples {
				row := make([]string, len(tp))
				for i, id := range tp {
					row[i] = u.Name(id)
				}
				tuples = append(tuples, row)
			}
			successes = append(successes, successJSON{
				Query: e.Q.String(), Changes: changes, Tuples: tuples,
			})
		}
	}
	var unknown []string
	for _, id := range out.Unknown {
		unknown = append(unknown, u.Name(id))
	}
	body := map[string]any{
		"succeeded": out.Succeeded(),
		"menu":      out.Menu(u),
		"waves":     len(out.Waves),
		"critical":  out.Critical,
		"exhausted": out.Exhausted,
		"unknown":   unknown,
		"successes": successes,
	}
	if out.Truncated {
		body["truncated"] = true
	}
	return http.StatusOK, body
}

// trimNeighborhood pages a neighborhood over its stable flat order:
// classes first, then the outgoing groups' entities, then the incoming
// groups' entities — each list already name-sorted by the browser, so
// (offset, limit) windows are stable across requests on an unchanged
// store. limit 0 means everything from offset; groups left empty by
// the window are dropped.
func trimNeighborhood(n *browse.Neighborhood, offset, limit int) *browse.Neighborhood {
	if offset == 0 && limit == 0 {
		return n
	}
	out := &browse.Neighborhood{Entity: n.Entity}
	idx := 0
	take := func() bool {
		ok := idx >= offset && (limit == 0 || idx < offset+limit)
		idx++
		return ok
	}
	for _, c := range n.Classes {
		if take() {
			out.Classes = append(out.Classes, c)
		}
	}
	trim := func(src []browse.RelGroup) []browse.RelGroup {
		var groups []browse.RelGroup
		for _, g := range src {
			ng := browse.RelGroup{Rel: g.Rel}
			for _, e := range g.Entities {
				if take() {
					ng.Entities = append(ng.Entities, e)
				}
			}
			if len(ng.Entities) > 0 {
				groups = append(groups, ng)
			}
		}
		return groups
	}
	out.Out = trim(n.Out)
	out.In = trim(n.In)
	return out
}

// navigateOp is the §4.1 neighborhood of ?entity=, paged by
// ?offset=&limit=.
func navigateOp(t *Tenant, p *params) (int, any) {
	offset, limit := p.num("offset", 0), p.num("limit", 0)
	if p.err != nil {
		return badRequest(p.err)
	}
	entity := p.Get("entity")
	if entity == "" {
		return badRequest(fmt.Errorf("entity parameter required"))
	}
	return http.StatusOK, neighborhood(t.db, entity, offset, limit)
}

// neighborhood is the /navigate body, which /search also attaches as
// a hit's preview.
func neighborhood(db *lsdb.Database, entity string, offset, limit int) map[string]any {
	u := db.Universe()
	n := db.Navigate(entity)
	total := n.Degree()
	n = trimNeighborhood(n, offset, limit)
	type relGroup struct {
		Rel      string   `json:"rel"`
		Entities []string `json:"entities"`
	}
	conv := func(src []browse.RelGroup) []relGroup {
		out := make([]relGroup, len(src))
		for i, g := range src {
			names := make([]string, len(g.Entities))
			for j, id := range g.Entities {
				names[j] = u.Name(id)
			}
			out[i] = relGroup{Rel: u.Name(g.Rel), Entities: names}
		}
		return out
	}
	var classes []string
	for _, id := range n.Classes {
		classes = append(classes, u.Name(id))
	}
	return map[string]any{
		"entity":  entity,
		"classes": classes,
		"out":     conv(n.Out),
		"in":      conv(n.In),
		"table":   n.Table(u).Render(),
		"total":   total,
		"offset":  offset,
	}
}

// betweenOp lists the relationships between ?src= and ?tgt=,
// composed paths included.
func betweenOp(t *Tenant, p *params) (int, any) {
	src, tgt := p.Get("src"), p.Get("tgt")
	if src == "" || tgt == "" {
		return badRequest(fmt.Errorf("src and tgt parameters required"))
	}
	db := t.db
	u := db.Universe()
	var assocs []map[string]any
	for _, a := range db.Between(src, tgt) {
		entry := map[string]any{"rel": u.Name(a.Rel), "composed": a.Path != nil}
		if a.Path != nil {
			var steps []string
			for _, f := range a.Path.Steps {
				steps = append(steps, u.FormatFact(f))
			}
			entry["steps"] = steps
		}
		assocs = append(assocs, entry)
	}
	return http.StatusOK, map[string]any{"associations": assocs}
}

// tryOp lists the stored facts that mention ?entity=, paged by
// ?offset=&limit=.
func tryOp(t *Tenant, p *params) (int, any) {
	offset, limit := p.num("offset", 0), p.num("limit", 0)
	if p.err != nil {
		return badRequest(p.err)
	}
	entity := p.Get("entity")
	if entity == "" {
		return badRequest(fmt.Errorf("entity parameter required"))
	}
	db := t.db
	u := db.Universe()
	all := db.Try(entity) // already sorted by (s, r, t) names: stable paging
	total := len(all)
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	var facts []factJSON
	for _, f := range all[offset:end] {
		facts = append(facts, factJSON{S: u.Name(f.S), R: u.Name(f.R), T: u.Name(f.T)})
	}
	return http.StatusOK, map[string]any{"facts": facts, "total": total, "offset": offset}
}

// maxSearchK caps the /search page size; maxSearchPreview caps the
// per-hit neighborhood preview size. Both keep one request's work
// bounded regardless of client input.
const (
	maxSearchK       = 100
	maxSearchPreview = 20
)

// searchOp is the /search read path: ranked keyword entry points
// with optional neighborhood previews. ?k= is the page size (0 → the
// search default), ?offset= skips ranked hits, ?preview= > 0 attaches
// each hit's first preview neighborhood entries, paged as /navigate
// pages them.
func searchOp(t *Tenant, p *params) (int, any) {
	k, offset, preview := p.num("k", 0), p.num("offset", 0), p.num("preview", 0)
	if p.err != nil {
		return badRequest(p.err)
	}
	q := p.Get("q")
	if q == "" {
		return badRequest(fmt.Errorf("q parameter required"))
	}
	if k == 0 {
		k = search.DefaultK
	}
	if k > maxSearchK {
		return badRequest(fmt.Errorf("k must be between 1 and %d", maxSearchK))
	}
	if preview > maxSearchPreview {
		return badRequest(fmt.Errorf("preview must be between 0 and %d", maxSearchPreview))
	}
	db := t.db
	res := db.Search(q, lsdb.SearchOptions{K: k, Offset: offset})
	hits := make([]map[string]any, 0, len(res.Hits))
	for _, h := range res.Hits {
		hit := map[string]any{
			"entity": h.Name,
			"score":  h.Score,
			"signals": map[string]float64{
				"term":     h.TermScore,
				"taxonomy": h.TaxScore,
				"hub":      h.HubScore,
			},
			"exact_name": h.ExactName,
			"matched":    h.Matched,
			"degree":     h.Degree,
		}
		if preview > 0 {
			hit["preview"] = neighborhood(db, h.Name, 0, preview)
		}
		hits = append(hits, hit)
	}
	return http.StatusOK, map[string]any{
		"q":             q,
		"terms":         res.Terms,
		"total":         res.Total,
		"offset":        offset,
		"k":             k,
		"index_version": res.Version,
		"hits":          hits,
	}
}

// deriveOp classifies how (?s, ?r, ?t) holds and, with ?trace=1,
// attaches the bounded on-demand derivation trace. ?depth= is the
// trace depth (absent: the default); the tenant's inference-depth
// quota rejects an explicit depth beyond it and clamps the default.
func deriveOp(t *Tenant, p *params) (int, any) {
	depth := p.num("depth", 1)
	if p.err != nil {
		return badRequest(p.err)
	}
	fs, fr, ft := p.Get("s"), p.Get("r"), p.Get("t")
	if fs == "" || fr == "" || ft == "" {
		return badRequest(fmt.Errorf("s, r, t query params required"))
	}
	maxDepth := t.quotas.MaxDepth
	if maxDepth > 0 && depth > maxDepth {
		return badRequest(fmt.Errorf("depth %d exceeds tenant quota %d", depth, maxDepth))
	}
	db := t.db
	// source classifies how the fact holds: "stored" (asserted
	// explicitly), "derived" (by a rule, with proof tree), "virtual"
	// (built-in families like equality and arithmetic, which are in the
	// closure but carry no derivation), or "absent".
	d := db.Derive(fs, fr, ft)
	var resp map[string]any
	switch {
	case d != nil && d.Rule == "stored":
		resp = map[string]any{
			"holds":   true,
			"source":  "stored",
			"virtual": false,
			"tree":    d.Format(db.Universe()),
		}
	case d != nil:
		resp = map[string]any{
			"holds":   true,
			"source":  "derived",
			"virtual": false,
			"rule":    d.Rule,
			"tree":    d.Format(db.Universe()),
		}
	case db.HasStored(fs, fr, ft):
		// Stored but outside the materialized closure (e.g. excluded
		// rules): still a plain stored fact, not a virtual one.
		resp = map[string]any{
			"holds":   true,
			"source":  "stored",
			"virtual": false,
			"tree":    "",
		}
	case db.Has(fs, fr, ft):
		resp = map[string]any{
			"holds":   true,
			"source":  "virtual",
			"virtual": true,
			"tree":    "",
		}
	default:
		resp = map[string]any{
			"holds":   false,
			"source":  "absent",
			"virtual": false,
			"tree":    "",
		}
	}
	if p.flag("trace") {
		// The trace replays the derivation through the bounded
		// on-demand path, recording one span per subgoal with its
		// cache disposition. The classification above stays
		// authoritative; the trace explains the work.
		if depth == 0 {
			depth = defaultTraceDepth
			if maxDepth > 0 && depth > maxDepth {
				depth = maxDepth
			}
		}
		tr := obs.NewTrace()
		db.HasBoundedTrace(fs, fr, ft, depth, tr)
		attachTrace(resp, tr)
	}
	return http.StatusOK, resp
}

// checkOp lists the integrity-constraint violations.
func checkOp(t *Tenant, _ *params) (int, any) {
	db := t.db
	u := db.Universe()
	var violations []string
	for _, v := range db.Check() {
		violations = append(violations, v.Format(u))
	}
	return http.StatusOK, map[string]any{
		"consistent": len(violations) == 0,
		"violations": violations,
	}
}

// replWALHandler and replSnapshotHandler expose the tenant's
// replication primary; a tenant not started with -serve-wal has none.
func replWALHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	if t.primary == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("tenant %s does not serve replication (start lsdbd with -serve-wal)", t.name))
		return
	}
	t.primary.ServeWAL(w, r)
}

func replSnapshotHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	if t.primary == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("tenant %s does not serve replication (start lsdbd with -serve-wal)", t.name))
		return
	}
	t.primary.ServeSnapshot(w, r)
}

// recoverHandler rebuilds a poisoned durability log in place (POST
// /recover-log): the operator's alternative to a restart after the
// disk came back. The snapshot write-lock keeps batches and mutations
// out while the log is swapped.
func recoverHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	if t.follower != nil {
		writeErr(w, http.StatusForbidden,
			fmt.Errorf("tenant %s is a replica; the follower's log is managed by replication", t.name))
		return
	}
	t.snap.Lock()
	err := t.db.RecoverLog()
	t.snap.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st := t.db.LogStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"recovered": true, "lsn": st.AppendedLSN, "policy": st.Policy,
	})
}

func healthzHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	st := t.db.LogStats()
	if st.Attached && st.Err != "" {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"ok": false, "log_error": st.Err,
		})
		return
	}
	if f := t.follower; f != nil {
		fs := f.Stats()
		if fs.Fatal {
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"ok": false, "repl_error": fs.LastErr,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "replica": true,
			"connected": fs.Connected, "applied_lsn": fs.Applied,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// statsHandler reads the same registry /metrics exposes — the
// counters have exactly one home. Only the non-numeric fields
// (policy, error, sync age, the enabled flag) still come from their
// structured sources; every number is a registry read. Unlike
// /metrics, /stats reports the closure size even when no snapshot is
// published yet, which forces a materialization on a cold database.
func statsHandler(t *Tenant, w http.ResponseWriter, r *http.Request) {
	db := t.db
	reg := db.Metrics()
	v := func(name string, labels ...string) uint64 {
		return uint64(reg.Value(name, labels...))
	}
	enumerated := reg.Histogram("lsdb_query_facts_enumerated")
	st := db.LogStats()
	durability := map[string]any{"log_attached": st.Attached}
	if st.Attached {
		durability["policy"] = st.Policy
		durability["appends"] = v("lsdb_wal_appends_total")
		durability["fsyncs"] = v("lsdb_wal_fsyncs_total")
		durability["compactions"] = v("lsdb_wal_compactions_total")
		durability["records"] = v("lsdb_wal_records")
		durability["appended_lsn"] = st.AppendedLSN
		durability["durable_lsn"] = st.DurableLSN
		durability["base_lsn"] = st.BaseLSN
		if st.TruncRecs > 0 {
			durability["truncated_records"] = st.TruncRecs
			durability["truncated_bytes"] = st.TruncBytes
		}
		if !st.LastSync.IsZero() {
			durability["last_sync_age"] = time.Since(st.LastSync).String()
		}
		if st.Err != "" {
			durability["error"] = st.Err
		}
	}
	replication := map[string]any{"role": "standalone"}
	switch {
	case t.primary != nil:
		minAcked, live := t.primary.MinAckedLSN()
		replication = map[string]any{
			"role":       "primary",
			"followers":  t.primary.Followers(),
			"live":       live,
			"min_acked":  minAcked,
			"lag_budget": t.primary.LagBudget(),
		}
	case t.follower != nil:
		fs := t.follower.Stats()
		replication = map[string]any{
			"role":                "replica",
			"applied_lsn":         fs.Applied,
			"primary_durable_lsn": fs.PrimaryDurable,
			"primary_base_lsn":    fs.PrimaryBase,
			"connected":           fs.Connected,
			"rebootstraps":        fs.Rebootstraps,
		}
		if fs.LastErr != "" {
			replication["last_err"] = fs.LastErr
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replication": replication,
		"tenant":      t.name,
		"stored":      v("lsdb_store_facts"),
		"closure":     db.ClosureLen(),
		"durability":  durability,
		"admission": map[string]any{
			"inflight":     t.inflight.Value(),
			"admitted":     t.admitted.Value(),
			"rejected":     t.RejectedTotal(),
			"stale_412":    t.stale.Value(),
			"max_inflight": t.quotas.MaxInflight,
			"max_depth":    t.quotas.MaxDepth,
		},
		"subgoal_cache": map[string]any{
			"enabled":       db.Engine().CacheStats().Enabled,
			"limit":         db.Engine().SubgoalCacheLimit(),
			"hits":          v("lsdb_subgoal_hits_total"),
			"misses":        v("lsdb_subgoal_misses_total"),
			"invalidations": v("lsdb_subgoal_invalidations_total"),
			"entries":       v("lsdb_subgoal_entries"),
			"evictions": map[string]any{
				"dependency": v("lsdb_subgoal_evicted_total", "reason", "dependency"),
				"ruleset":    v("lsdb_subgoal_evicted_total", "reason", "ruleset"),
				"epoch":      v("lsdb_subgoal_evicted_total", "reason", "epoch"),
				"history":    v("lsdb_subgoal_evicted_total", "reason", "history"),
			},
		},
		"closure_maintenance": map[string]any{
			"rebuilds_full":        v("lsdb_rules_rebuilds_total", "kind", "full"),
			"rebuilds_incremental": v("lsdb_rules_rebuilds_total", "kind", "incremental"),
			"rebuilds_delete":      v("lsdb_rules_rebuilds_total", "kind", "delete"),
			"delete_propagations":  v("lsdb_closure_delete_propagations_total"),
			"delta_facts":          v("lsdb_closure_delta_facts"),
			"tombstones":           v("lsdb_closure_tombstones"),
			"folds":                v("lsdb_closure_folds_total"),
			"facts_by_rule":        db.Engine().ClosureFactsByRule(),
		},
		"index": map[string]any{
			"posting_bytes": v("lsdb_index_posting_bytes"),
			"buckets":       v("lsdb_index_buckets"),
			"seal_builds":   v("lsdb_index_seal_builds_total"),
		},
		"query": map[string]any{
			"evals":               enumerated.Count(),
			"facts_enumerated":    enumerated.Sum(),
			"empty_shortcircuits": v("lsdb_query_empty_shortcircuits_total"),
		},
		"search": map[string]any{
			"queries":          v("lsdb_search_queries_total"),
			"index_builds":     v("lsdb_search_index_builds_total"),
			"index_folds":      v("lsdb_search_index_folds_total"),
			"overlay_entities": v("lsdb_search_index_overlay_entities"),
			"index_bytes":      v("lsdb_search_index_bytes"),
			"index_tokens":     v("lsdb_search_index_tokens"),
			"index_entities":   v("lsdb_search_index_entities"),
		},
	})
}
