package check

import (
	"strings"
	"testing"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/sym"
)

// TestSearchVsScan runs the keyword-search differential over several
// generated worlds, including high-churn schedules whose retraction
// bursts force post-retraction index refreshes mid-replay. Run under
// -race this also exercises the snapshot swap against the replay
// writes.
func TestSearchVsScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := gen.Generate(seed, gen.Small())
		if err := searchVsScan(w, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		cc := gen.SmallChurn()
		cc.Disjoint = seed%2 != 0
		w := gen.Churn(seed, cc)
		if err := searchVsScan(w, Options{}); err != nil {
			t.Fatalf("churn seed %d: %v", seed, err)
		}
	}
}

func TestSearchVsScanMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium world in -short mode")
	}
	w := gen.Generate(7, gen.Medium())
	if err := searchVsScan(w, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchVsScanDetectsBugs is the harness self-test: a scan fed a
// perturbed database must diverge from the index. We retract a fact
// behind the Searcher's back via the raw store, so the version does
// not move and the index keeps serving the stale snapshot.
func TestSearchVsScanDetectsBugs(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("MOZART", "in", "COMPOSER")
	db.MustAssert("SALIERI", "in", "COMPOSER")

	// Warm the index, then check the differential agrees while honest.
	got := db.Search("mozart", lsdb.SearchOptions{K: -1})
	if err := diffRankings("mozart", 0, got, searchScan(db, "mozart")); err != nil {
		t.Fatalf("honest differential failed: %v", err)
	}

	// A stale snapshot (simulated by comparing against a scan of a
	// *different* database) must be reported as a ranking diff.
	other := lsdb.New()
	other.MustAssert("SALIERI", "in", "COMPOSER")
	if err := diffRankings("mozart", 0, got, searchScan(other, "mozart")); err == nil {
		t.Fatal("differential missed a one-entity divergence")
	} else if !strings.Contains(err.Error(), "mozart") {
		t.Fatalf("unhelpful failure detail: %v", err)
	}
}

// TestSearchIncremental runs the incremental-index oracle over churn
// worlds, and checks that they exercise what it exists for: snapshots
// both patched and folded, entities appearing and vanishing, ≈
// components splitting, and ≺ edits under a three-deep class walk.
func TestSearchIncremental(t *testing.T) {
	var patches, folds float64
	var cov searchCoverage
	for seed := int64(0); seed < 16; seed++ {
		cc := gen.SmallChurn()
		if seed%4 == 3 {
			cc = gen.MediumChurn()
		}
		cc.Disjoint = seed%4 == 1
		w := gen.Churn(seed, cc)
		db, err := searchIncremental(w)
		if err != nil {
			min := gen.Shrink(w, func(c *gen.World) bool { return SearchIncremental(c, Options{}) != nil })
			t.Fatalf("seed %d: %v\nshrunk to:\n%s", seed, SearchIncremental(min, Options{}), min.Program())
		}
		m := db.Metrics()
		folds += m.Value("lsdb_search_index_folds_total")
		patches += m.Value("lsdb_search_index_builds_total") - m.Value("lsdb_search_index_folds_total")
		cov.add(w)
	}
	t.Logf("%g patches, %g folds; coverage %+v", patches, folds, cov)
	if patches == 0 || folds <= 16 {
		t.Errorf("%g patches and %g folds over 16 worlds, want both paths taken", patches, folds)
	}
	if cov.added == 0 || cov.vanished == 0 || cov.synSplits == 0 || cov.deepGen == 0 {
		t.Errorf("churn worlds miss a case the overlay must handle: %+v", cov)
	}
}

// searchCoverage counts, over replayed worlds, the writes whose dirty
// sets reach beyond the fact's own entities.
type searchCoverage struct {
	added, vanished int // entities that appeared, disappeared
	synSplits       int // retractions that split a synonym component
	deepGen         int // ≺ edits at a class two ∈/≺ steps above some entity
}

func (c *searchCoverage) add(w *gen.World) {
	u := fact.NewUniverse()
	st := store.New(u)
	// connected reports whether a and b share a synonym component.
	connected := func(a, b sym.ID) bool {
		seen := map[sym.ID]bool{a: true}
		queue := []sym.ID{a}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			var next []sym.ID
			st.Match(x, u.Syn, sym.None, func(f fact.Fact) bool { next = append(next, f.T); return true })
			st.Match(sym.None, u.Syn, x, func(f fact.Fact) bool { next = append(next, f.S); return true })
			st.Match(x, u.Gen, sym.None, func(f fact.Fact) bool {
				if st.Has(fact.Fact{S: f.T, R: u.Gen, T: x}) {
					next = append(next, f.T)
				}
				return true
			})
			for _, n := range next {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		return seen[b]
	}
	for _, op := range w.Ops {
		if op.Kind != gen.OpAssert && op.Kind != gen.OpRetract {
			continue
		}
		f := u.NewFact(op.S, op.R, op.T)
		ents := [3]sym.ID{f.S, f.R, f.T}
		var before [3]bool
		for i, e := range ents {
			before[i] = st.HasEntity(e)
		}
		synEdge := f.R == u.Syn || (f.R == u.Gen && st.Has(fact.Fact{S: f.T, R: u.Gen, T: f.S}))
		if op.Kind == gen.OpAssert {
			if !st.Insert(f) {
				continue
			}
		} else if !st.Delete(f) {
			continue
		} else if synEdge && f.S != f.T && !connected(f.S, f.T) {
			c.synSplits++
		}
		for i, e := range ents {
			switch now := st.HasEntity(e); {
			case now && !before[i]:
				c.added++
			case !now && before[i]:
				c.vanished++
			}
		}
		if f.R == u.Gen {
			st.Match(sym.None, sym.None, f.S, func(g fact.Fact) bool {
				if g.R == u.Gen || g.R == u.Member {
					if st.EstimateCount(sym.None, u.Member, g.S)+st.EstimateCount(sym.None, u.Gen, g.S) > 0 {
						c.deepGen++
						return false
					}
				}
				return true
			})
		}
	}
}
