package check

import (
	"testing"

	"repro/internal/gen"
)

// TestSealedVsMutableOracle runs the sealed-vs-mutable oracle directly
// across generated worlds (it is also part of Run; this pins the
// satellite requirement on its own).
func TestSealedVsMutableOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := gen.Generate(seed, gen.Small())
		if f := SealedVsMutable(w); f != nil {
			t.Fatalf("seed %d: %v\n%s", seed, f, w.Program())
		}
	}
}

// TestSealedVsMutableScale runs the memory-scale differential on a
// Zipf world. Sized so `go test -race ./internal/check` stays
// CI-feasible; lsdb-check's scale row runs bigger worlds (make soak
// uses 200000 facts).
func TestSealedVsMutableScale(t *testing.T) {
	facts := 30_000
	if testing.Short() {
		facts = 5_000
	}
	for _, seed := range []int64{1, 42} {
		if err := sealedVsMutableScale(gen.ScaleConfig{Facts: facts, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLayeredModelOracle runs the layered-store model check directly
// across small, medium and churn worlds (it is also part of Run).
func TestLayeredModelOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		w := gen.Generate(seed, gen.Small())
		if seed%8 == 7 {
			w = gen.Generate(seed, gen.Medium())
		} else if seed%2 == 1 {
			w = gen.Churn(seed, gen.SmallChurn())
		}
		if f := LayeredModel(w); f != nil {
			min := gen.Shrink(w, func(c *gen.World) bool { return LayeredModel(c) != nil })
			t.Fatalf("seed %d: %v\nshrunk to:\n%s", seed, LayeredModel(min), min.Program())
		}
	}
}
