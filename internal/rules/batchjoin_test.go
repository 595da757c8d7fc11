package rules

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// batchWorld builds a fresh engine over a random management/likes
// graph with user rules chosen to exercise every joinBatch path:
// a chain join (shared variable, column mode), a cross product
// (broadcast mode), a constant-endpoint filter, and a body atom on a
// special relation (≺) that must take the per-binding fallback.
func batchWorld(t *testing.T, seed int64, people, depts int) (*fact.Universe, *Engine) {
	t.Helper()
	u := fact.NewUniverse()
	st := store.New(u)
	rng := rand.New(rand.NewSource(seed))
	p := func(i int) string { return fmt.Sprintf("P%d", i) }
	for i := 0; i < people; i++ {
		st.Insert(u.NewFact(p(i), "MANAGES", p(rng.Intn(people))))
		st.Insert(u.NewFact(p(i), "LIKES", p(rng.Intn(people))))
		st.Insert(u.NewFact(p(i), "∈", fmt.Sprintf("D%d", rng.Intn(depts))))
	}
	for d := 1; d < depts; d++ {
		st.Insert(u.NewFact(fmt.Sprintf("D%d", d), "≺", fmt.Sprintf("D%d", d-1)))
	}
	eng := New(st, virtual.New(u))
	for i, src := range []string{
		"(?x, MANAGES, ?y) & (?y, MANAGES, ?z) => (?x, SENIOR-TO, ?z)",
		"(?x, MANAGES, ?y) & (?y, LIKES, ?z) & (?z, MANAGES, ?w) => (?x, WATCHES, ?w)",
		"(?x, LIKES, ?y) & (?z, MANAGES, P0) => (?x, HEARD-OF, ?z)",
		"(?d, ≺, D0) & (?x, MANAGES, ?y) => (?y, AUDITED-BY, ?d)",
	} {
		r, err := ParseRule(u, fmt.Sprintf("r%d", i), Inference, src)
		if err != nil {
			t.Fatalf("parse rule %d: %v", i, err)
		}
		if err := eng.AddRule(r); err != nil {
			t.Fatalf("add rule %d: %v", i, err)
		}
	}
	return u, eng
}

func collectBounded(e *Engine, s, r, t sym.ID, depth int) []fact.Fact {
	var out []fact.Fact
	e.MatchBounded(s, r, t, depth, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return fact.Compare(out[i], out[j]) < 0 })
	return out
}

// TestBatchJoinDifferential forces the batch join path always-on and
// always-off over the same worlds and demands identical results from
// both bounded matching and forward closure materialization. This is
// the correctness oracle for the generic-pattern trick: evaluating a
// premise once for a whole batch and filtering per binding must equal
// evaluating it per binding.
func TestBatchJoinDifferential(t *testing.T) {
	restore := func(m, f int) { minBatchBindings, maxBatchFanout = m, f }
	defer restore(minBatchBindings, maxBatchFanout)

	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type snapshot struct {
				closure []fact.Fact
				bounded [][]fact.Fact
			}
			run := func() snapshot {
				u, eng := batchWorld(t, seed, 24, 4)
				var s snapshot
				s.closure = eng.Closure().Facts()
				sort.Slice(s.closure, func(i, j int) bool { return fact.Compare(s.closure[i], s.closure[j]) < 0 })
				probes := [][3]sym.ID{
					{sym.None, u.Intern("SENIOR-TO"), sym.None},
					{u.Intern("P1"), sym.None, sym.None},
					{sym.None, u.Intern("WATCHES"), sym.None},
					{sym.None, u.Intern("HEARD-OF"), u.Intern("P3")},
					{sym.None, u.Intern("AUDITED-BY"), sym.None},
				}
				for _, pr := range probes {
					for _, d := range []int{1, 2, 4} {
						s.bounded = append(s.bounded, collectBounded(eng, pr[0], pr[1], pr[2], d))
					}
				}
				return s
			}

			minBatchBindings, maxBatchFanout = 1, 1<<30 // force batching everywhere eligible
			on := run()
			minBatchBindings, maxBatchFanout = 1<<30, 0 // force per-binding evaluation
			off := run()

			if !sameFacts(on.closure, off.closure) {
				t.Fatalf("closure differs: batched %d facts, unbatched %d", len(on.closure), len(off.closure))
			}
			if len(on.bounded) != len(off.bounded) {
				t.Fatalf("probe count mismatch")
			}
			for i := range on.bounded {
				if !sameFacts(on.bounded[i], off.bounded[i]) {
					t.Errorf("bounded probe %d differs: batched %d facts, unbatched %d",
						i, len(on.bounded[i]), len(off.bounded[i]))
				}
			}
		})
	}
}

// TestBatchJoinSegmentFlush shrinks nothing but drives a join whose
// intermediate binding count exceeds one batch segment, checking the
// flush/recurse path loses no solutions: P0 manages everyone, everyone
// manages P1, so SENIOR-TO must contain (P0, SENIOR-TO, P1) plus one
// fact per intermediate.
func TestBatchJoinSegmentFlush(t *testing.T) {
	restore := func(m, f int) { minBatchBindings, maxBatchFanout = m, f }
	defer restore(minBatchBindings, maxBatchFanout)
	minBatchBindings, maxBatchFanout = 1, 1<<30

	u := fact.NewUniverse()
	st := store.New(u)
	n := 2*batchSegment + 37 // spill two full segments
	for i := 0; i < n; i++ {
		mid := fmt.Sprintf("M%d", i)
		st.Insert(u.NewFact("P0", "MANAGES", mid))
		st.Insert(u.NewFact(mid, "MANAGES", "P1"))
	}
	eng := New(st, virtual.New(u))
	r, err := ParseRule(u, "chain", Inference, "(?x, MANAGES, ?y) & (?y, MANAGES, ?z) => (?x, SENIOR-TO, ?z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddRule(r); err != nil {
		t.Fatal(err)
	}
	got := collectBounded(eng, u.Intern("P0"), u.Intern("SENIOR-TO"), sym.None, 1)
	if len(got) != 1 || got[0].T != u.Intern("P1") {
		t.Fatalf("SENIOR-TO from P0 = %v, want exactly (P0, SENIOR-TO, P1)", got)
	}
	gotMid := collectBounded(eng, sym.None, u.Intern("SENIOR-TO"), u.Intern("P1"), 1)
	if len(gotMid) != 1 {
		t.Fatalf("SENIOR-TO into P1 = %d facts, want 1", len(gotMid))
	}
}
