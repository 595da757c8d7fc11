package lsdb_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	lsdb "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// TestMetricContract drives a known workload — N asserts, one closure
// rebuild, one checkpoint, M warm repeat queries — and pins every
// observability counter to an exact or tightly bounded value. This is
// the end-to-end guarantee behind /metrics and /stats: the numbers a
// scrape reports are the numbers the workload caused, not
// approximations.
func TestMetricContract(t *testing.T) {
	db, err := lsdb.Open(lsdb.Options{
		LogPath:    filepath.Join(t.TempDir(), "db.log"),
		SyncPolicy: lsdb.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := db.Metrics()
	v := func(name string, labels ...string) float64 { return reg.Value(name, labels...) }

	// N asserts. Every accepted assert is exactly one commit, one
	// insert mutation, and one WAL append; under SyncAlways each
	// sequential commit blocks on its own fsync, so at least N syncs.
	facts := [][3]string{
		{"TWEETY", "in", "CANARY"},
		{"CANARY", "isa", "BIRD"},
		{"BIRD", "isa", "ANIMAL"},
		{"BIRD", "TRAVELS-BY", "FLIGHT"},
		{"POLLY", "in", "PARROT"},
		{"PARROT", "isa", "BIRD"},
	}
	for _, f := range facts {
		db.MustAssert(f[0], f[1], f[2])
	}
	n := float64(len(facts))
	if got := v("lsdb_store_commits_total"); got != n {
		t.Errorf("commits = %g, want %g", got, n)
	}
	if got := v("lsdb_store_mutations_total", "op", "insert"); got != n {
		t.Errorf("insert mutations = %g, want %g", got, n)
	}
	if got := v("lsdb_store_mutations_total", "op", "delete"); got != 0 {
		t.Errorf("delete mutations = %g, want 0", got)
	}
	if got := v("lsdb_wal_appends_total"); got != n {
		t.Errorf("wal appends = %g, want %g", got, n)
	}
	if got := v("lsdb_wal_fsyncs_total"); got < n {
		t.Errorf("wal fsyncs = %g, want >= %g under SyncAlways", got, n)
	}
	if got := v("lsdb_store_facts"); got != n {
		t.Errorf("stored facts gauge = %g, want %g", got, n)
	}

	// One closure rebuild: the first materialization is a full build;
	// a repeat read at the same version rebuilds nothing.
	if got := v("lsdb_rules_rebuilds_total", "kind", "full"); got != 0 {
		t.Fatalf("rebuilds before any closure read = %g, want 0", got)
	}
	size := db.ClosureLen()
	_ = db.ClosureLen()
	if got := v("lsdb_rules_rebuilds_total", "kind", "full"); got != 1 {
		t.Errorf("full rebuilds = %g, want exactly 1", got)
	}
	if got := v("lsdb_closure_facts"); got != float64(size) {
		t.Errorf("closure gauge = %g, want %d", got, size)
	}

	// One checkpoint compacts the log: the record count collapses to
	// the live fact count and the checkpoint counter moves once.
	if err := db.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := v("lsdb_store_checkpoints_total"); got != 1 {
		t.Errorf("checkpoints = %g, want 1", got)
	}
	if got := v("lsdb_wal_records"); got != n {
		t.Errorf("wal records after checkpoint = %g, want %g", got, n)
	}

	// M warm repeat queries. The cold bounded derivation populates the
	// subgoal cache (misses > 0); every warm repeat resolves its root
	// subgoal from the shared table — exactly one hit per repeat and
	// not a single new miss, a hit ratio of 1 over the warm window.
	derive := func() {
		if !db.HasBoundedTrace("TWEETY", "in", "ANIMAL", 3, nil) {
			t.Fatal("TWEETY in ANIMAL not derivable at depth 3")
		}
	}
	derive()
	coldMisses := v("lsdb_subgoal_misses_total")
	if coldMisses == 0 {
		t.Fatal("cold derivation recorded no cache misses")
	}
	warmStart := v("lsdb_subgoal_hits_total")
	const m = 25
	for i := 0; i < m; i++ {
		derive()
	}
	if got := v("lsdb_subgoal_misses_total"); got != coldMisses {
		t.Errorf("warm repeats added misses: %g -> %g", coldMisses, got)
	}
	if got := v("lsdb_subgoal_hits_total") - warmStart; got != m {
		t.Errorf("warm hits = %g, want exactly %d (one root hit per repeat)", got, m)
	}
	if got := v("lsdb_ondemand_facts_scanned_total"); got == 0 {
		t.Error("facts-scanned counter never moved")
	}
	if got := v("lsdb_ondemand_max_depth"); got != 3 {
		t.Errorf("max depth gauge = %g, want 3", got)
	}

	// Posting-index instrumentation: the single closure publish above
	// built exactly one sealed posting index, and the index gauges must
	// agree with the published closure's own stats.
	if got := v("lsdb_index_seal_builds_total"); got != 1 {
		t.Errorf("seal builds = %g, want exactly 1 (one closure publish)", got)
	}
	if got := v("lsdb_index_seal_ns"); got != 1 {
		t.Errorf("seal histogram count = %g, want 1", got)
	}
	ist := db.Engine().Closure().IndexStats()
	if ist.PostingBytes == 0 || ist.Buckets() == 0 {
		t.Fatalf("implausible closure IndexStats %+v", ist)
	}
	if got := v("lsdb_index_posting_bytes"); got != float64(ist.PostingBytes) {
		t.Errorf("posting bytes gauge = %g, want %d", got, ist.PostingBytes)
	}
	if got := v("lsdb_index_buckets"); got != float64(ist.Buckets()) {
		t.Errorf("bucket gauge = %g, want %d", got, ist.Buckets())
	}

	// A two-atom user rule over a plain relation with fan-out 6, and
	// the asserts it joins, answered on demand.
	if err := db.AddRule("chain", "(?x, KNOWS, ?y) & (?y, KNOWS, ?z) => (?x, AWARE-OF, ?z)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		q := fmt.Sprintf("Q%d", i)
		db.MustAssert("P0", "KNOWS", q)
		db.MustAssert(q, "KNOWS", "P9")
	}
	if !db.HasBoundedTrace("P0", "AWARE-OF", "P9", 2, nil) {
		t.Fatal("P0 AWARE-OF P9 not derivable at depth 2")
	}

	// Re-publishing after the rule and assert churn seals one more
	// posting index, and the gauges track the new closure.
	db.ClosureLen()
	if got := v("lsdb_index_seal_builds_total"); got != 2 {
		t.Errorf("seal builds after republish = %g, want exactly 2", got)
	}
	if got := v("lsdb_index_seal_ns"); got != 2 {
		t.Errorf("seal histogram count after republish = %g, want 2", got)
	}
	if got := v("lsdb_index_posting_bytes"); got != float64(db.Engine().Closure().IndexStats().PostingBytes) {
		t.Errorf("posting bytes gauge stale after republish: %g", got)
	}

	// Query evaluation: one histogram observation per evaluation, of the
	// facts it enumerated. A conjunction through a class nobody is in
	// ends on the estimate: a short-circuit, and not one fact read.
	enumerated := reg.Histogram("lsdb_query_facts_enumerated")
	if enumerated.Count() != 0 || v("lsdb_query_empty_shortcircuits_total") != 0 {
		t.Errorf("query counters moved before any query: %d evals, %g short-circuits",
			enumerated.Count(), v("lsdb_query_empty_shortcircuits_total"))
	}
	if rows, err := db.Query("(?b, in, CANARY)"); err != nil || len(rows.Tuples) != 1 {
		t.Fatalf("canaries = %v, %v", rows, err)
	}
	if enumerated.Count() != 1 || enumerated.Sum() != 1 {
		t.Errorf("one-fact query: %d evals enumerated %d facts, want 1 and 1", enumerated.Count(), enumerated.Sum())
	}
	if rows, err := db.Query("(?b, in, DODO) & (?b, TRAVELS-BY, ?how)"); err != nil || rows.True {
		t.Fatalf("dodos = %v, %v", rows, err)
	}
	if enumerated.Count() != 2 || enumerated.Sum() != 1 {
		t.Errorf("empty-class join: %d evals enumerated %d facts in all, want 2 and still 1", enumerated.Count(), enumerated.Sum())
	}
	if got := v("lsdb_query_empty_shortcircuits_total"); got != 1 {
		t.Errorf("empty short-circuits = %g, want exactly 1", got)
	}

	// The registry and the structured stats views must agree exactly —
	// they read the same memory.
	cs := db.Engine().CacheStats()
	if float64(cs.Hits) != v("lsdb_subgoal_hits_total") || float64(cs.Misses) != v("lsdb_subgoal_misses_total") {
		t.Errorf("CacheStats %+v disagrees with registry (hits=%g misses=%g)",
			cs, v("lsdb_subgoal_hits_total"), v("lsdb_subgoal_misses_total"))
	}
	ls := db.LogStats()
	if float64(ls.Appends) != v("lsdb_wal_appends_total") || float64(ls.Fsyncs) != v("lsdb_wal_fsyncs_total") {
		t.Errorf("LogStats %+v disagrees with registry (appends=%g fsyncs=%g)",
			ls, v("lsdb_wal_appends_total"), v("lsdb_wal_fsyncs_total"))
	}
}

// TestMetricContractEviction pins the dependency-eviction and
// delete-propagation arithmetic on a fixed two-predicate workload
// (a WROTE lineage and an EARNS lineage, queried at depth 2). The
// exact counts are properties of the deterministic evaluation order;
// what they certify:
//
//   - a write evicts lazily and precisely: the eviction counter moves
//     only at lookup, each dependency eviction is exactly one miss,
//     and a write to a class no subgoal read evicts only the
//     wildcard-dependent entries (free-relation and domain-dependent
//     enumerations), leaving every narrow entry warm;
//   - the table itself survives writes (invalidations stay zero until
//     a ruleset change discards it wholesale, counted per entry under
//     reason="ruleset");
//   - a single-fact retraction is repaired by delete propagation —
//     kind="delete" rebuild, one propagation, a one-fact cone — with
//     no additional full build.
func TestMetricContractEviction(t *testing.T) {
	db, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := func(name string, labels ...string) float64 { return db.Metrics().Value(name, labels...) }
	evictDep := func() float64 { return v("lsdb_subgoal_evicted_total", "reason", "dependency") }

	db.MustAssert("DANTE", "in", "POET")
	db.MustAssert("POET", "isa", "WRITER")
	db.MustAssert("WRITER", "WROTE", "BOOKS")
	db.MustAssert("CLERK", "in", "STAFF")
	db.MustAssert("STAFF", "isa", "EMPLOYEE")
	db.MustAssert("EMPLOYEE", "EARNS", "WAGE")

	wrote := func() {
		if !db.HasBoundedTrace("DANTE", "WROTE", "BOOKS", 2, nil) {
			t.Fatal("WROTE inference missing")
		}
	}
	earns := func() {
		if !db.HasBoundedTrace("CLERK", "EARNS", "WAGE", 2, nil) {
			t.Fatal("EARNS inference missing")
		}
	}

	// Cold: the WROTE query computes 45 subgoals; the EARNS query
	// shares 11 of the structural ones and computes 34 of its own.
	wrote()
	if got := v("lsdb_subgoal_misses_total"); got != 45 {
		t.Errorf("cold WROTE misses = %g, want 45", got)
	}
	earns()
	if got := v("lsdb_subgoal_entries"); got != 79 {
		t.Errorf("entries after both cold queries = %g, want 79", got)
	}
	// Warm: each repeat is exactly one root hit, no new misses.
	wrote()
	earns()
	if got := v("lsdb_subgoal_hits_total"); got != 13 {
		t.Errorf("hits after warm repeats = %g, want 13 (11 shared cold + 2 roots)", got)
	}
	if got := v("lsdb_subgoal_misses_total"); got != 79 {
		t.Errorf("misses after warm repeats = %g, want 79", got)
	}

	// A write in a relation class neither query reads evicts exactly
	// the 8 wildcard-dependent entries; each eviction is exactly one
	// miss on the repeat, the other 71 entries stay warm, and the
	// table is never discarded.
	db.MustAssert("AUDITOR", "REVIEWS", "LEDGER")
	wrote()
	earns()
	if got := evictDep(); got != 8 {
		t.Errorf("evictions after unrelated write = %g, want 8 (wildcard entries only)", got)
	}
	if got := v("lsdb_subgoal_misses_total"); got != 87 {
		t.Errorf("misses after unrelated write = %g, want 87 (79 + one per eviction)", got)
	}
	if got := v("lsdb_subgoal_invalidations_total"); got != 0 {
		t.Errorf("invalidations = %g, want 0 (table survives writes)", got)
	}

	// A write in the WROTE class additionally evicts the 11 entries
	// whose summaries cover WROTE; again misses move in lockstep.
	db.MustAssert("BARD", "WROTE", "PLAYS")
	wrote()
	earns()
	if got := evictDep(); got != 19 {
		t.Errorf("evictions after WROTE write = %g, want 19 (8 wildcard + 11 WROTE-dependent)", got)
	}
	if got := v("lsdb_subgoal_misses_total"); got != 98 {
		t.Errorf("misses after WROTE write = %g, want 98 (87 + one per eviction)", got)
	}

	// Retraction: the published closure is repaired by delete
	// propagation — one kind="delete" rebuild, one propagation, a
	// single-fact cone, and no second full build.
	db.ClosureLen() // publish (full build #1)
	if _, err := db.RetractFact(db.Universe().NewFact("BARD", "WROTE", "PLAYS")); err != nil {
		t.Fatal(err)
	}
	db.ClosureLen()
	if got := v("lsdb_rules_rebuilds_total", "kind", "delete"); got != 1 {
		t.Errorf("delete rebuilds = %g, want 1", got)
	}
	if got := v("lsdb_closure_delete_propagations_total"); got != 1 {
		t.Errorf("delete propagations = %g, want 1", got)
	}
	if got := v("lsdb_closure_delete_cone_facts"); got != 1 {
		t.Errorf("delete-cone histogram count = %g, want 1", got)
	}
	if got := v("lsdb_rules_rebuilds_total", "kind", "full"); got != 1 {
		t.Errorf("full rebuilds = %g, want 1 (retraction must not force a full build)", got)
	}

	// A ruleset change discards the whole table: every current entry
	// is counted under reason="ruleset" and the wholesale discard is
	// one invalidation.
	entries := v("lsdb_subgoal_entries")
	if err := db.ExcludeRule("gen-target"); err != nil {
		t.Fatal(err)
	}
	wrote()
	if got := v("lsdb_subgoal_evicted_total", "reason", "ruleset"); got != entries {
		t.Errorf("ruleset evictions = %g, want %g (whole table)", got, entries)
	}
	if got := v("lsdb_subgoal_invalidations_total"); got != 1 {
		t.Errorf("invalidations after rule toggle = %g, want 1", got)
	}
}

// TestMetricContractDeletes pins the delete side: a retraction is one
// commit and one delete mutation; re-retracting a missing fact commits
// nothing.
func TestMetricContractDeletes(t *testing.T) {
	db, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := func(name string, labels ...string) float64 { return db.Metrics().Value(name, labels...) }

	db.MustAssert("JOHN", "in", "EMPLOYEE")
	f := db.Universe().NewFact("JOHN", "in", "EMPLOYEE")
	for i := 0; i < 2; i++ { // second retraction is a no-op
		if _, err := db.RetractFact(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := v("lsdb_store_commits_total"); got != 2 {
		t.Errorf("commits = %g, want 2 (assert + first retract only)", got)
	}
	if got := v("lsdb_store_mutations_total", "op", "delete"); got != 1 {
		t.Errorf("delete mutations = %g, want 1", got)
	}
}

// TestMetricContractClosureLayers pins the closure-layer series to the
// workload that moves them: a write is folded into the next snapshot
// as delta facts or tombstones over the shared base and builds no
// posting index; lsdb_index_seal_builds_total / lsdb_index_seal_ns
// move only on a full build or a fold, together; a fold empties both
// gauges and is counted exactly once; and every gauge equals what the
// published closure's own IndexStats reports.
func TestMetricContractClosureLayers(t *testing.T) {
	db := dataset.Employment(300, 7)
	v := func(name string, labels ...string) float64 { return db.Metrics().Value(name, labels...) }
	layers := func() (delta, tombstones float64) {
		st := db.Engine().Closure().IndexStats()
		if got := v("lsdb_closure_delta_facts"); got != float64(st.Delta) {
			t.Errorf("delta gauge = %g, IndexStats.Delta = %d", got, st.Delta)
		}
		if got := v("lsdb_closure_tombstones"); got != float64(st.Tombstones) {
			t.Errorf("tombstone gauge = %g, IndexStats.Tombstones = %d", got, st.Tombstones)
		}
		if got := v("lsdb_closure_facts"); got != float64(st.Facts+st.Delta-st.Tombstones) {
			t.Errorf("closure gauge = %g, layers %+v", got, st)
		}
		return float64(st.Delta), float64(st.Tombstones)
	}
	builds := func(want float64, when string) {
		t.Helper()
		if got := v("lsdb_index_seal_builds_total"); got != want {
			t.Errorf("%s: posting builds = %g, want %g", when, got, want)
		}
		if got := v("lsdb_index_seal_ns"); got != want {
			t.Errorf("%s: seal histogram count = %g, want %g (one observation per build)", when, got, want)
		}
	}

	// Scrape-safe: the gauges read the published snapshot and never
	// build one.
	if v("lsdb_closure_delta_facts") != 0 || v("lsdb_closure_tombstones") != 0 || v("lsdb_rules_rebuilds_total", "kind", "full") != 0 {
		t.Fatal("layer gauges built a closure, or read one that is not there")
	}
	size := db.ClosureLen()
	if d, ts := layers(); d != 0 || ts != 0 {
		t.Errorf("a full build left layers: delta %g, tombstones %g", d, ts)
	}
	builds(1, "full build")

	db.MustAssert("EMP-LAYERS", "in", "EMPLOYEE")
	if d, ts := layers(); d == 0 || ts != 0 || db.ClosureLen() != size+int(d) {
		t.Errorf("after one assert: delta %g, tombstones %g, closure %d -> %d", d, ts, size, db.ClosureLen())
	}
	db.Retract("JOHN", "in", "EMPLOYEE")
	if _, ts := layers(); ts == 0 {
		t.Error("retracting a base fact left no tombstones")
	}
	builds(1, "one assert and one retract")
	if got := v("lsdb_closure_folds_total"); got != 0 {
		t.Errorf("folds = %g before the layers reached the threshold", got)
	}
	if inc, del := v("lsdb_rules_rebuilds_total", "kind", "incremental"), v("lsdb_rules_rebuilds_total", "kind", "delete"); inc != 1 || del != 1 {
		t.Errorf("rebuilds: incremental %g, delete %g, want 1 and 1", inc, del)
	}

	// Keep writing until the layers outgrow the threshold.
	for i := 0; v("lsdb_closure_folds_total") == 0; i++ {
		if i > 500 {
			t.Fatal("no fold after 500 writes")
		}
		db.MustAssert(fmt.Sprintf("EMP-LATE-%d", i), "in", "EMPLOYEE")
		db.ClosureLen()
	}
	if d, ts := layers(); d != 0 || ts != 0 {
		t.Errorf("a fold left layers: delta %g, tombstones %g", d, ts)
	}
	builds(2, "first fold")
	if got := v("lsdb_closure_folds_total"); got != 1 {
		t.Errorf("folds = %g, want exactly 1", got)
	}
	if got := v("lsdb_rules_rebuilds_total", "kind", "full"); got != 1 {
		t.Errorf("full rebuilds = %g, want 1 (a fold is not a rebuild)", got)
	}
}

// TestMetricContractSearchOverlay pins the search-index series to the
// writes that move them: the first query builds the index, which is a
// fold; a write costs the next query a patch, which moves
// lsdb_search_index_builds_total but not lsdb_search_index_folds_total
// and sets lsdb_search_index_overlay_entities to the entities the
// writes since the fold touched; once the overlay would outgrow 1/16
// of the base a query folds, exactly once, and the overlay empties.
// /stats reports the same numbers.
func TestMetricContractSearchOverlay(t *testing.T) {
	db := dataset.Employment(300, 7)
	v := func(name string) float64 { return db.Metrics().Value(name) }
	state := func(when string, builds, folds, overlay float64) {
		t.Helper()
		if b, f, o := v("lsdb_search_index_builds_total"), v("lsdb_search_index_folds_total"), v("lsdb_search_index_overlay_entities"); b != builds || f != folds || o != overlay {
			t.Errorf("%s: builds %g, folds %g, overlay %g; want %g, %g, %g", when, b, f, o, builds, folds, overlay)
		}
		if got := int(v("lsdb_search_index_entities")); got != db.Searcher().Refresh().Entities {
			t.Errorf("%s: entities gauge %d, index %d", when, got, db.Searcher().Refresh().Entities)
		}
	}
	if v("lsdb_search_index_builds_total") != 0 {
		t.Fatal("the index was built before any query")
	}
	db.Search("employee", lsdb.SearchOptions{})
	state("first query", 1, 1, 0)

	// One write touches its source and its target.
	db.MustAssert("NEW-HIRE-0", "in", "EMPLOYEE")
	if res := db.Search("new-hire-0", lsdb.SearchOptions{}); len(res.Hits) == 0 || res.Hits[0].Name != "NEW-HIRE-0" {
		t.Fatalf("patched index does not find the new entity first: %+v", res.Hits)
	}
	state("one write", 2, 1, 2)
	db.Search("person", lsdb.SearchOptions{})
	state("an unchanged store", 2, 1, 2)

	// Keep writing until the overlay outgrows the fold threshold.
	writes := 1
	for ; v("lsdb_search_index_folds_total") == 1; writes++ {
		if writes > 200 {
			t.Fatal("no fold after 200 writes")
		}
		db.MustAssert(fmt.Sprintf("NEW-HIRE-%d", writes), "in", "EMPLOYEE")
		db.Search("employee", lsdb.SearchOptions{})
	}
	state("the fold", float64(1+writes), 2, 0)

	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Search map[string]float64 `json:"search"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for key, series := range map[string]string{
		"index_builds":     "lsdb_search_index_builds_total",
		"index_folds":      "lsdb_search_index_folds_total",
		"overlay_entities": "lsdb_search_index_overlay_entities",
	} {
		if got, ok := stats.Search[key]; !ok || got != v(series) {
			t.Errorf("/stats search.%s = %v (present %v), want %g", key, got, ok, v(series))
		}
	}
}

// TestMetricContractFactsByRule pins lsdb_closure_facts_by_rule, the
// closure broken down by the rule that first put each fact in it: a
// full build sets one series per rule, "stored" and "axiom" included,
// summing to the closure size; incremental maintenance leaves the
// series as of the last full build; a rule that stops deriving reads 0
// rather than its old count; /stats reports the same numbers.
func TestMetricContractFactsByRule(t *testing.T) {
	db := lsdb.New()
	v := func(rule string) float64 { return db.Metrics().Value("lsdb_closure_facts_by_rule", "rule", rule) }
	for _, f := range [][3]string{
		{"TWEETY", "in", "CANARY"},
		{"CANARY", "isa", "BIRD"},
		{"BIRD", "isa", "ANIMAL"},
		{"BIRD", "TRAVELS-BY", "FLIGHT"},
	} {
		db.MustAssert(f[0], f[1], f[2])
	}
	if db.Engine().ClosureFactsByRule() != nil || v("stored") != 0 {
		t.Fatal("facts-by-rule series exist before any closure build")
	}
	sum := func(when string) map[string]int64 {
		t.Helper()
		by := db.Engine().ClosureFactsByRule()
		total := int64(0)
		for rule, n := range by {
			if float64(n) != v(rule) {
				t.Errorf("%s: ClosureFactsByRule[%s] = %d, gauge %g", when, rule, n, v(rule))
			}
			total += n
		}
		if total != int64(db.ClosureLen()) {
			t.Errorf("%s: facts by rule sum to %d, closure has %d", when, total, db.ClosureLen())
		}
		return by
	}

	db.ClosureLen()
	by := sum("full build")
	// The two ≺ facts chain once; TWEETY reaches BIRD and ANIMAL by
	// member-up; CANARY, TWEETY inherit TRAVELS-BY; 14 axioms.
	for rule, want := range map[string]int64{"stored": 4, "axiom": 14, "gen-transitive": 1, "member-up": 2} {
		if by[rule] != want {
			t.Errorf("full build: %s = %d, want %d", rule, by[rule], want)
		}
	}
	if by["gen-source"] == 0 || by["member-source"] == 0 {
		t.Errorf("full build: no inherited facts: %v", by)
	}

	// An assert is maintained incrementally: the series stay as of the
	// last full build.
	db.MustAssert("POLLY", "in", "CANARY")
	if db.ClosureLen() <= int(by["stored"]+by["axiom"]) || v("stored") != 4 {
		t.Errorf("incremental maintenance moved the series: stored %g", v("stored"))
	}

	// Excluding member-up forces a full build: its series reads 0.
	if err := db.ExcludeRule("member-up"); err != nil {
		t.Fatal(err)
	}
	db.ClosureLen()
	by = sum("member-up excluded")
	if n, ok := by["member-up"]; !ok || n != 0 || v("member-up") != 0 {
		t.Errorf("excluded rule reads %d (present %v), gauge %g; want 0", n, ok, v("member-up"))
	}
	if by["stored"] != 5 {
		t.Errorf("stored = %d after one more assert, want 5", by["stored"])
	}

	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Maint struct {
			FactsByRule map[string]int64 `json:"facts_by_rule"`
		} `json:"closure_maintenance"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Maint.FactsByRule) != len(by) {
		t.Errorf("/stats facts_by_rule has %d rules, want %d", len(stats.Maint.FactsByRule), len(by))
	}
	for rule, n := range by {
		if got, ok := stats.Maint.FactsByRule[rule]; !ok || got != n {
			t.Errorf("/stats facts_by_rule[%s] = %d (present %v), want %d", rule, got, ok, n)
		}
	}
}

// TestAdmissionControlContract drives a tenant past its in-flight
// quota and pins the exact rejection behavior: a 429 with the JSON
// error shape and a Retry-After derived from the overload ratio, the
// per-endpoint rejected counter at exactly 1, admitted requests
// unaffected, and every admission gauge reconciled to zero once the
// tenant drains. The server's admit hook holds admitted requests
// provably in flight, so the test is deterministic, not a race.
func TestAdmissionControlContract(t *testing.T) {
	db := dataset.Music()
	s := serve.New()
	const quota = 2
	tenant, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{MaxInflight: quota})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	parked := make(chan struct{}, quota+1)
	s.SetAdmitHook(func(_, endpoint string) {
		if endpoint == "query" {
			parked <- struct{}{}
			<-gate // hold admitted queries in flight until released
		}
	})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	// Fill the quota: two queries are admitted and parked in the hook.
	results := make(chan int, quota)
	for i := 0; i < quota; i++ {
		go func() {
			results <- getToEOF(srv.URL + "/query?q=%28JOHN%2C%20FAVORITE-MUSIC%2C%20%3Fp%29")
		}()
	}
	// The hook runs after admission: once it has run for every query,
	// all of them are in flight.
	for i := 0; i < quota; i++ {
		<-parked
	}
	if got := tenant.Inflight(); got != quota {
		t.Fatalf("inflight = %d with %d queries parked", got, quota)
	}

	// The third query is rejected: 429, Retry-After = ceil(3/2) = 2,
	// standard JSON error body, rejected counter moves exactly once.
	resp, err := http.Get(srv.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("429 body not JSON: %v", err)
	}
	resp.Body.Close()
	if body["error"] == "" {
		t.Error("429 body missing error field")
	}
	reg := db.Metrics()
	if got := reg.Value("lsdb_http_rejected_total", "endpoint", "query"); got != 1 {
		t.Errorf("rejected counter = %g, want exactly 1", got)
	}
	// The rejection rolled its gauge increment back: still quota in
	// flight, not quota+1.
	if got := tenant.Inflight(); got != quota {
		t.Errorf("inflight after rejection = %d, want %d", got, quota)
	}

	// Quota-exempt endpoints stay reachable while the tenant is full.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz during overload: status %d, want 200", resp.StatusCode)
	}

	// Drain: the parked queries complete with 200; nothing about the
	// rejection leaked into their accounting.
	close(gate)
	for i := 0; i < quota; i++ {
		if code := <-results; code != 200 {
			t.Errorf("admitted request finished with status %d, want 200", code)
		}
	}
	// Every response was read to EOF, which net/http ends only after
	// the handler, and with it the admission release, has returned.
	if got := tenant.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
	if got := reg.Value("lsdb_http_requests_total", "endpoint", "query"); got != quota {
		t.Errorf("query requests counter = %g, want %d (rejected request not counted as served)", got, quota)
	}
	if got := reg.Value("lsdb_http_rejected_total", "endpoint", "query"); got != 1 {
		t.Errorf("rejected counter after drain = %g, want 1", got)
	}
	if got := tenant.RejectedTotal(); got != 1 {
		t.Errorf("RejectedTotal = %d, want 1", got)
	}

	// Back under quota: the next request is admitted normally.
	resp, err = http.Get(srv.URL + "/query?q=%28JOHN%2C%20FAVORITE-MUSIC%2C%20%3Fp%29")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("post-drain request: status %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionExemptSlots pins that quota-exempt traffic does not
// consume admission slots: with a metrics scrape parked in flight, a
// tenant with MaxInflight=2 must still admit two real queries. The
// exempt request counts on the inflight gauge (it is live work) but
// not on the admitted gauge the quota compares against — the bug this
// pins had Admit compare the combined gauge, so a scrape could push a
// paying request over quota.
func TestAdmissionExemptSlots(t *testing.T) {
	db := dataset.Music()
	s := serve.New()
	const quota = 2
	tenant, err := s.AddTenant(serve.DefaultTenant, db, serve.Quotas{MaxInflight: quota})
	if err != nil {
		t.Fatal(err)
	}
	mgate := make(chan struct{})
	qgate := make(chan struct{})
	parked := make(chan string, quota+1)
	s.SetAdmitHook(func(_, endpoint string) {
		switch endpoint {
		case "metrics":
			parked <- endpoint
			<-mgate
		case "query":
			parked <- endpoint
			<-qgate
		}
	})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	// Park an exempt scrape in flight.
	mdone := make(chan int, 1)
	go func() { mdone <- getToEOF(srv.URL + "/metrics") }()
	<-parked
	if got := tenant.Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1 (parked scrape)", got)
	}

	// With the scrape occupying an inflight slot, the full quota of
	// real queries must still be admitted.
	qdone := make(chan int, quota)
	for i := 0; i < quota; i++ {
		go func() { qdone <- getToEOF(srv.URL + "/query?q=%28JOHN%2C%20FAVORITE-MUSIC%2C%20%3Fp%29") }()
	}
	for i := 0; i < quota; i++ {
		<-parked
	}
	if got := tenant.Inflight(); got != 1+quota {
		t.Fatalf("inflight = %d, want %d (scrape + full quota admitted)", got, 1+quota)
	}
	reg := db.Metrics()
	if got := reg.Value("lsdb_http_rejected_total", "endpoint", "query"); got != 0 {
		t.Fatalf("rejected = %g with quota slots free for real traffic", got)
	}
	if got := reg.Value("lsdb_http_admitted"); got != quota {
		t.Errorf("admitted gauge = %g, want %d (scrape excluded)", got, quota)
	}

	// The quota is genuinely full now: one more real query is rejected.
	resp, err := http.Get(srv.URL + "/query?q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-quota request: status %d, want 429", resp.StatusCode)
	}

	// And another exempt request is admitted even at full quota.
	respH, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	respH.Body.Close()
	if respH.StatusCode != 200 {
		t.Errorf("/healthz at full quota: status %d, want 200", respH.StatusCode)
	}

	// Drain everything; both gauges reconcile to zero.
	close(qgate)
	close(mgate)
	for i := 0; i < quota; i++ {
		if code := <-qdone; code != 200 {
			t.Errorf("admitted query finished with status %d, want 200", code)
		}
	}
	if code := <-mdone; code != 200 {
		t.Errorf("parked scrape finished with status %d, want 200", code)
	}
	if got := tenant.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
	if got := reg.Value("lsdb_http_admitted"); got != 0 {
		t.Errorf("admitted gauge after drain = %g, want 0", got)
	}
	if got := reg.Value("lsdb_http_rejected_total", "endpoint", "query"); got != 1 {
		t.Errorf("rejected after drain = %g, want exactly 1", got)
	}
}

// getToEOF GETs url and reads the whole body, returning the status
// (-1 on a transport error). Reading to EOF is what makes the serve
// layer's admission accounting exact: net/http ends a response body
// only after its handler has returned.
func getToEOF(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return -1
	}
	return resp.StatusCode
}
