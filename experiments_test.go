package lsdb_test

// Experiment gates: the assertions EXPERIMENTS.md's E5, E8 and E10c
// tables were accepted on, checked directly on each experiment's own
// world. The shape tests (shapes_test.go) assert the same claims on
// smaller worlds; these keep the original workloads under test.

import (
	"fmt"
	"sort"
	"testing"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/dataset"
	"repro/internal/fact"
	"repro/internal/rules"
	"repro/internal/sym"
)

// TestE5LimitOneFindsNoPaths: on the E5 graph (400 entities, 1600
// facts, materialized closure), limit(1) disables composition, so the
// hub→node query reports zero paths (§6.1).
func TestE5LimitOneFindsNoPaths(t *testing.T) {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: 400, Facts: 1600, Relationships: 6, Seed: 13,
	})
	db.ClosureLen()
	src, tgt := db.Entity(names[0]), db.Entity(names[7])
	db.Limit(1)
	if n := len(db.Composer().Paths(src, tgt)); n != 0 {
		t.Errorf("limit 1: %d paths hub→node, want 0", n)
	}
}

// TestE8ClimbWavesEqualDepth: on each of E8's five taxonomy shapes,
// with the fan-probe fact present and the closure materialized (the
// shape test probes an unmaterialized taxonomy), the pure climb query
// (?x, ∈, LEAF) retracts in exactly depth waves.
func TestE8ClimbWavesEqualDepth(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {2, 4}, {2, 6}, {3, 3}, {4, 3}} {
		b, d := shape[0], shape[1]
		db := dataset.Taxonomy(dataset.TaxonomyConfig{
			Branching: b, Depth: d, MembersPerLeaf: 0, FactsPerClass: 1, Seed: 3,
		})
		db.MustAssert("ROOT-INSTANCE", "in", "C0")
		db.MustAssert("PROBE-X", "PROBE-REL", "C0")
		db.ClosureLen()
		leaf := "C0"
		for i := 0; i < d; i++ {
			leaf += ".0"
		}
		out, err := db.Probe("(?x, in, " + leaf + ")")
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Waves) != d {
			t.Errorf("branching %d depth %d: %d climb waves", b, d, len(out.Waves))
		}
	}
}

// onDemandWorld returns E7r's 20k-fact Zipf graph enriched with a
// relationship hierarchy, inversions and a class taxonomy with
// memberships, and its navigation trail: hub, mid and tail entities
// by Zipf rank.
func onDemandWorld() (*lsdb.Database, []sym.ID) {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: 2000, Facts: 20000, Relationships: 8, Seed: 17,
	})
	rel := func(i int) string { return fmt.Sprintf("REL-%02d", i) }
	for i := 1; i < 8; i += 2 {
		db.MustAssert(rel(i), "isa", rel(i-1))
	}
	for i := 0; i < 4; i++ {
		db.MustAssert(rel(i), "inv", fmt.Sprintf("REL-INV-%02d", i))
	}
	for j := 1; j < 6; j++ {
		db.MustAssert(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < len(names); i += 10 {
		db.MustAssert(names[i], "in", fmt.Sprintf("K%d", i%6))
	}
	trail := make([]sym.ID, 0, 5)
	for _, name := range []string{names[0], names[2], names[20], names[200], names[1500]} {
		trail = append(trail, db.Entity(name))
	}
	return db, trail
}

// replayNavigation replays one browsing session over the trail with
// bounded on-demand inference at the given depth.
func replayNavigation(db *lsdb.Database, depth int, trail []sym.ID) {
	b := browse.NewOnDemand(db.Engine(), nil, depth)
	for _, e := range trail {
		b.Neighborhood(e)
	}
}

// churnedHitRate replays the session reps times with one write
// through relationship class rel before each replay, returning the
// subgoal-table hit rate over the churned window.
func churnedHitRate(db *lsdb.Database, depth int, trail []sym.ID, rel string, reps int) float64 {
	st0 := db.Engine().CacheStats()
	for i := 0; i < reps; i++ {
		db.MustAssert(fmt.Sprintf("E10C-W-%s-%d", rel, i), rel, "E10C-SINK")
		replayNavigation(db, depth, trail)
	}
	st1 := db.Engine().CacheStats()
	if dh, dm := st1.Hits-st0.Hits, st1.Misses-st0.Misses; dh+dm > 0 {
		return float64(dh) / float64(dh+dm)
	}
	return 0
}

// TestE10cWarmRetentionAndDeleteMaintenance: on E7r's browsing world,
// the warm subgoal hit rate stays at or above 50% under sustained
// writes to a relationship class no narrow subgoal read, and no lower
// than under ∈-class writes; retracting one local data edge is
// repaired by delete propagation rather than a full closure rebuild.
func TestE10cWarmRetentionAndDeleteMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("E10c runs a 20k-fact world")
	}
	db, trail := onDemandWorld()
	const depth = 2
	replayNavigation(db, depth, trail) // prime

	// A relationship class whose dependency bit misses every narrow
	// entry of the warm table: writes through it can evict only
	// wildcard-dependent entries.
	used, _, _ := db.Engine().CacheDepProfile()
	noise := "E10C-NOISE-0"
	for i := 0; i < 256; i++ {
		noise = fmt.Sprintf("E10C-NOISE-%d", i)
		if rules.DepBit(db.Entity(noise))&used == 0 {
			break
		}
	}
	unrelated := churnedHitRate(db, depth, trail, noise, 20)
	related := churnedHitRate(db, depth, trail, "in", 20)
	if unrelated < 0.5 {
		t.Errorf("warm hit rate under unrelated-class writes = %.2f, want >= 0.5", unrelated)
	}
	if unrelated < related {
		t.Errorf("unrelated-class churn hit rate %.2f below ∈-class churn %.2f", unrelated, related)
	}

	// Retract the smallest REL-06 edge: REL-06 has no inversion and no
	// generalization, so the retraction's cone is local.
	db.Engine().Invalidate()
	db.ClosureLen()
	var edges []fact.Fact
	db.Store().Match(sym.None, db.Entity("REL-06"), sym.None, func(f fact.Fact) bool {
		edges = append(edges, f)
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].S != edges[j].S {
			return edges[i].S < edges[j].S
		}
		return edges[i].T < edges[j].T
	})
	db.Retract(db.Name(edges[0].S), "REL-06", db.Name(edges[0].T))
	db.ClosureLen()
	reg := db.Metrics()
	if got := reg.Value("lsdb_rules_rebuilds_total", "kind", "delete"); got < 1 {
		t.Errorf("single-fact retraction did not take the delete-propagation rebuild (delete rebuilds = %g)", got)
	}
	if got := reg.Value("lsdb_closure_delete_propagations_total"); got < 1 {
		t.Errorf("delete propagations = %g, want >= 1", got)
	}
}
