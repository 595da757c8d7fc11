package search_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/search"
)

// TestSearchIncrementalCatchesPlantedDefects is the incremental-index
// oracle's own acceptance test: each planted bug in the patch path
// must make check.SearchIncremental fail on some churn world, and the
// failing world must shrink to a repro of at most 20 asserts.
func TestSearchIncrementalCatchesPlantedDefects(t *testing.T) {
	for _, name := range []string{"drop-target", "no-reverse-walk", "keep-vanished"} {
		t.Run(name, func(t *testing.T) {
			defer search.PlantDefect(name)()
			fails := func(w *gen.World) bool { return check.SearchIncremental(w, check.Options{}) != nil }
			var failing *gen.World
			for seed := int64(0); seed < 50 && failing == nil; seed++ {
				if w := gen.Churn(seed, gen.SmallChurn()); fails(w) {
					failing = w
				}
			}
			if failing == nil {
				t.Fatal("planted defect never detected across 50 churn worlds")
			}
			min := gen.Shrink(failing, fails)
			if !fails(min) {
				t.Fatal("shrunk world no longer fails")
			}
			if min.NumAsserts() > 20 {
				t.Fatalf("shrunk repro has %d asserts, want ≤ 20:\n%s", min.NumAsserts(), min.Program())
			}
			t.Logf("%v\n%s", check.SearchIncremental(min, check.Options{}), min.Program())
		})
	}
}
