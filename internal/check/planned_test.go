package check

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/sym"
)

// TestPlannedVsSyntacticOracle runs the planner oracle directly across
// small, churn and (unless -short) one medium world.
func TestPlannedVsSyntacticOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		w := gen.Generate(seed, gen.Small())
		if seed%4 == 3 {
			w = gen.Churn(seed, gen.SmallChurn())
		}
		if err := plannedVsSyntactic(w, nil); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, w.Program())
		}
	}
	if testing.Short() {
		return
	}
	w := gen.Generate(100, gen.Medium())
	if err := plannedVsSyntactic(w, nil); err != nil {
		t.Fatalf("medium seed 100: %v\n%s", err, w.Program())
	}
}

// overconfident vouches for every estimate of 0, the planner bug the
// oracle exists for: an inexact zero (a virtual family, a pattern only
// inference or composition answers) taken as proof of emptiness.
type overconfident struct{ query.Matcher }

func (m overconfident) EstimateCount(s, r, t sym.ID) (int, bool) {
	n, exact := m.Matcher.EstimateCount(s, r, t)
	return n, exact || n == 0
}

// TestPlannedVsSyntacticCatchesOverconfidentEstimates is the oracle's
// own acceptance test.
func TestPlannedVsSyntacticCatchesOverconfidentEstimates(t *testing.T) {
	rows, err := Select("planned-vs-syntactic")
	if err != nil {
		t.Fatal(err)
	}
	lying := rows[0]
	lying.Run = func(w *gen.World, _ Options) error {
		return plannedVsSyntactic(w, func(m query.Matcher) query.Matcher { return overconfident{m} })
	}
	caught := 0
	for seed := int64(0); seed < 40; seed++ {
		w := gen.Generate(seed, gen.Small())
		if f := lying.Check(w, Options{}); f != nil {
			if f.Oracle != "planned-vs-syntactic" {
				t.Fatalf("unexpected oracle name %q", f.Oracle)
			}
			caught++
		}
	}
	if caught < 10 {
		t.Fatalf("an estimator that calls every 0 exact was caught on %d of 40 worlds", caught)
	}
}
