package lsdb_test

// Shape tests: the qualitative claims recorded in EXPERIMENTS.md,
// asserted programmatically on scaled-down workloads. These do not
// check absolute timings (machine-dependent) but the *relations*
// between strategies — who wins, what grows, where behaviour changes.

import (
	"testing"
	"time"

	lsdb "repro"
	"repro/internal/dataset"
	"repro/internal/fact"
	"repro/internal/relstore"
	"repro/internal/rules"
	"repro/internal/sym"
)

func medianTime(reps int, fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// E1 shape: the indexed heap answers "everything about X" faster than
// the schema-blind relational scan, and the gap grows with size.
func TestShapeE1BrowsingBeatsScan(t *testing.T) {
	cfg := dataset.UniversityConfig{
		Students: 1000, Courses: 50, Instructors: 20, EnrollPerStudent: 3, Seed: 11,
	}
	db := dataset.University(cfg)
	rdb := relstore.New()
	tbl, _ := rdb.Create("T", "S", "R", "O")
	u := db.Universe()
	for _, f := range db.Store().Facts() {
		tbl.Insert(u.Name(f.S), u.Name(f.R), u.Name(f.T))
	}
	target := db.Entity("STU-00007")

	heap := medianTime(20, func() {
		db.Store().MatchAll(target, sym.None, sym.None)
		db.Store().MatchAll(sym.None, sym.None, target)
	})
	scan := medianTime(20, func() { rdb.FindEverywhere("STU-00007") })
	if heap*5 >= scan {
		t.Errorf("browsing not clearly faster: heap=%v scan=%v", heap, scan)
	}
}

// E3 shape: the closure is strictly larger than the base, grows with
// taxonomy depth, and shrinks when inheritance is excluded.
func TestShapeE3ClosureGrowth(t *testing.T) {
	sizes := map[int]int{}
	for _, d := range []int{2, 3, 4} {
		db := dataset.Taxonomy(dataset.TaxonomyConfig{
			Branching: 2, Depth: d, MembersPerLeaf: 2, FactsPerClass: 1, Seed: 5,
		})
		base, closure := db.Len(), db.ClosureLen()
		if closure <= base {
			t.Errorf("depth %d: closure %d not larger than base %d", d, closure, base)
		}
		sizes[d] = closure

		eng := db.Engine()
		eng.Exclude(rules.GenSource)
		eng.Exclude(rules.MemberSource)
		if got := db.ClosureLen(); got >= closure {
			t.Errorf("depth %d: excluding inheritance did not shrink closure (%d >= %d)", d, got, closure)
		}
	}
	if !(sizes[2] < sizes[3] && sizes[3] < sizes[4]) {
		t.Errorf("closure sizes not increasing with depth: %v", sizes)
	}
}

// E5 shape: composition path counts are monotone in limit(n), zero at
// n=1.
func TestShapeE5CompositionMonotone(t *testing.T) {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: 120, Facts: 500, Relationships: 4, Seed: 13,
	})
	src, tgt := db.Entity(names[0]), db.Entity(names[5])
	prev := -1
	for _, n := range []int{1, 2, 3, 4} {
		db.Limit(n)
		count := len(db.Composer().Paths(src, tgt))
		if n == 1 && count != 0 {
			t.Errorf("limit 1 found %d paths", count)
		}
		if count < prev {
			t.Errorf("paths shrank: limit %d -> %d paths (prev %d)", n, count, prev)
		}
		prev = count
	}
}

// E6 shape: neighborhood cost tracks degree, not database size.
func TestShapeE6NavigationDegreeNotSize(t *testing.T) {
	small, namesS := dataset.Graph(dataset.GraphConfig{
		Entities: 500, Facts: 2000, Relationships: 4, Seed: 17,
	})
	big, namesB := dataset.Graph(dataset.GraphConfig{
		Entities: 500, Facts: 20000, Relationships: 4, Seed: 17,
	})
	small.ClosureLen()
	big.ClosureLen()
	// Pick the minimum-degree entity in each graph.
	minDeg := func(db *lsdb.Database, names []string) (sym.ID, int) {
		bestID, bestDeg := sym.None, 1<<30
		for _, n := range names {
			id := db.Entity(n)
			if d := db.Store().Degree(id); d > 0 && d < bestDeg {
				bestID, bestDeg = id, d
			}
		}
		return bestID, bestDeg
	}
	tailS, degS := minDeg(small, namesS)
	tailB, degB := minDeg(big, namesB)
	if tailS == sym.None || tailB == sym.None {
		t.Skip("no connected entities")
	}
	ds := medianTime(30, func() { small.Browser().Neighborhood(tailS) })
	dbt := medianTime(30, func() { big.Browser().Neighborhood(tailB) })
	// Normalize per unit of degree: a 10× larger database must not
	// slow per-degree neighborhood retrieval by more than generous
	// noise allows.
	perS := float64(ds) / float64(degS)
	perB := float64(dbt) / float64(degB)
	if perB > perS*8 {
		t.Errorf("per-degree neighborhood cost scaled with database size: %.0fns vs %.0fns (deg %d vs %d)",
			perS, perB, degS, degB)
	}
}

// E7 shape: steady-state materialized matching beats *cold* bounded
// on-demand matching by a wide margin, and the cross-query subgoal
// cache closes most of that gap for repeated queries.
func TestShapeE7MaterializedWins(t *testing.T) {
	db := dataset.Taxonomy(dataset.TaxonomyConfig{
		Branching: 2, Depth: 3, MembersPerLeaf: 2, FactsPerClass: 1, Seed: 23,
	})
	eng := db.Engine()
	leaf := db.Entity("I-C0.0.0.0-0")
	eng.Closure()
	mat := medianTime(20, func() { eng.MatchAll(leaf, sym.None, sym.None) })

	eng.SetSubgoalCache(false)
	cold := medianTime(3, func() {
		eng.MatchBounded(leaf, sym.None, sym.None, 4, func(fact.Fact) bool { return true })
	})
	if mat*10 >= cold {
		t.Errorf("materialized not clearly faster than cold on-demand: %v vs %v", mat, cold)
	}

	eng.SetSubgoalCache(true)
	warmup := func() {
		eng.MatchBounded(leaf, sym.None, sym.None, 4, func(fact.Fact) bool { return true })
	}
	warmup()
	warm := medianTime(20, warmup)
	if warm*2 >= cold {
		t.Errorf("subgoal cache not clearly faster than cold on-demand: %v vs %v", warm, cold)
	}
}

// E8 shape: single-dimension retraction waves equal the
// generalization distance, whatever the taxonomy's branching.
func TestShapeE8ClimbDepth(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {3, 3}, {4, 3}} {
		b, d := shape[0], shape[1]
		db := dataset.Taxonomy(dataset.TaxonomyConfig{
			Branching: b, Depth: d, MembersPerLeaf: 0, FactsPerClass: 1, Seed: 3,
		})
		db.MustAssert("ROOT-INSTANCE", "in", "C0")
		leaf := "C0"
		for i := 0; i < d; i++ {
			leaf += ".0"
		}
		out, err := db.Probe("(?x, in, " + leaf + ")")
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Waves) != d {
			t.Errorf("branching %d depth %d: %d waves", b, d, len(out.Waves))
		}
	}
}
