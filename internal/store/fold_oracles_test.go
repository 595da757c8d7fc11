package store_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/store"
)

// TestOraclesAcrossFoldRegimes reruns the differential oracles that
// police closure maintenance — incremental-vs-full, the DRed churn
// worlds, 1-vs-N workers, the structural invariants — with the fold
// rule pinned to each extreme, so every published snapshot crosses a
// fold boundary (every Seal folds) or none after the first does (the
// delta and tombstone layers only ever grow). With the production
// constant small worlds fold at an arbitrary mix of publishes; these
// two runs make both code paths certain.
func TestOraclesAcrossFoldRegimes(t *testing.T) {
	seeds, churnSeeds := int64(12), int64(8)
	if testing.Short() {
		seeds, churnSeeds = 4, 3
	}
	for _, regime := range []struct {
		name string
		den  int
	}{{"fold-every-seal", 1 << 30}, {"never-fold-again", 0}} {
		t.Run(regime.name, func(t *testing.T) {
			defer store.SetFoldDen(regime.den)()
			oracles := func(w *gen.World) *check.Failure {
				if f := check.Invariants(w); f != nil {
					return f
				}
				if f := check.IncrementalVsFull(w); f != nil {
					return f
				}
				if f := check.ParallelEquivalence(w, check.Options{}); f != nil {
					return f
				}
				if f := check.SealedVsMutable(w); f != nil {
					return f
				}
				return check.LayeredModel(w)
			}
			for seed := int64(0); seed < seeds; seed++ {
				w := gen.Generate(seed, gen.Small())
				if f := oracles(w); f != nil {
					t.Fatalf("seed %d: %v\n%s", seed, f, w.Program())
				}
			}
			for seed := int64(0); seed < churnSeeds; seed++ {
				cc := gen.SmallChurn()
				cc.Disjoint = seed%2 != 0
				w := gen.Churn(seed, cc)
				if f := oracles(w); f != nil {
					t.Fatalf("churn seed %d: %v\n%s", seed, f, w.Program())
				}
			}
		})
	}
}
