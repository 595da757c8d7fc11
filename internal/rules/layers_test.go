package rules

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// layeredWorld builds a campus-shaped base store whose closure holds
// well over 20k facts: a three-level class tree with attribute facts
// on every class, and members in the leaf classes who inherit them all.
func layeredWorld(t testing.TB) (*fact.Universe, *store.Store, *Engine, *obs.Registry) {
	t.Helper()
	u := fact.NewUniverse()
	s := store.New(u)
	attrs := func(class string) {
		for k := 0; k < 4; k++ {
			s.Insert(u.NewFact(class, fmt.Sprintf("ATTR-%s-%d", class, k%2), fmt.Sprintf("VAL-%s-%d", class, k)))
		}
	}
	attrs("ROOT")
	for i := 0; i < 8; i++ {
		mid := fmt.Sprintf("MID-%d", i)
		s.Insert(u.NewFact(mid, "isa", "ROOT"))
		attrs(mid)
		for j := 0; j < 5; j++ {
			leaf := fmt.Sprintf("LEAF-%d-%d", i, j)
			s.Insert(u.NewFact(leaf, "isa", mid))
			attrs(leaf)
			for m := 0; m < 40; m++ {
				s.Insert(u.NewFact(fmt.Sprintf("M-%d-%d-%d", i, j, m), "in", leaf))
			}
		}
	}
	e := New(s, virtual.New(u))
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	return u, s, e, reg
}

// sharesBase reports whether two closure snapshots read bystander's
// facts from the same base fact array. bystander is an entity no write
// of the test touches, so both answers are zero-copy spans of their
// store's base: equal addresses mean one shared, unrebuilt base.
func sharesBase(t *testing.T, a, b *store.Store, bystander sym.ID) bool {
	t.Helper()
	fa, fb := a.MatchAll(bystander, sym.None, sym.None), b.MatchAll(bystander, sym.None, sym.None)
	if len(fa) == 0 || len(fa) != len(fb) {
		t.Fatalf("bystander has %d and %d facts in the two snapshots", len(fa), len(fb))
	}
	return &fa[0] == &fb[0]
}

// TestWriteCostsDeltaNotClosure pins the complexity of closure
// maintenance, not its time: on a ≥20k-fact closure one assert and
// one retract each publish a snapshot without building a posting
// index, over the very base the previous snapshot reads; writes that
// push the layers past the store's fold threshold cause exactly one
// fold; and the folded closure equals a from-scratch build.
func TestWriteCostsDeltaNotClosure(t *testing.T) {
	u, s, e, reg := layeredWorld(t)
	builds := func() float64 { return reg.Value("lsdb_index_seal_builds_total") }
	folds := func() float64 { return reg.Value("lsdb_closure_folds_total") }

	c0 := e.Closure()
	if c0.Len() < 20000 {
		t.Fatalf("closure has %d facts, the test wants ≥ 20000", c0.Len())
	}
	if builds() != 1 || folds() != 0 || reg.Value("lsdb_index_seal_ns") != 1 {
		t.Fatalf("after the first build: builds %g, folds %g", builds(), folds())
	}
	bystander := u.Entity("M-0-0-0")

	// One assert.
	newbie := u.NewFact("NEWBIE", "in", "LEAF-3-2")
	s.Insert(newbie)
	c1 := e.Closure()
	if got := reg.Value("lsdb_rules_rebuilds_total", "kind", "incremental"); got != 1 {
		t.Fatalf("incremental rebuilds = %g, want 1", got)
	}
	if builds() != 1 || folds() != 0 {
		t.Errorf("one assert built a posting index: builds %g, folds %g", builds(), folds())
	}
	if !sharesBase(t, c0, c1, bystander) {
		t.Error("the snapshot after one assert does not share its predecessor's base")
	}
	st := c1.IndexStats()
	if st.Delta == 0 || st.Delta > 64 || st.Tombstones != 0 || st.Facts != c0.Len() || c1.Len() != c0.Len()+st.Delta {
		t.Errorf("layers after one assert: %+v over a %d-fact base", st, c0.Len())
	}
	if got := reg.Value("lsdb_closure_delta_facts"); got != float64(st.Delta) {
		t.Errorf("delta gauge %g, IndexStats %d", got, st.Delta)
	}
	inherited := u.NewFact("NEWBIE", "ATTR-ROOT-0", "VAL-ROOT-0")
	if !c1.Has(inherited) || c0.Has(inherited) || c0.Has(newbie) {
		t.Error("the assert's consequences are missing, or leaked into the old snapshot")
	}
	if why := e.Explain(inherited); why == "" || why == "stored" {
		t.Errorf("Explain of a delta fact = %q, want a rule name", why)
	}
	if d := e.Derive(inherited); d == nil || len(d.Premises) == 0 {
		t.Error("Derive of a delta fact found no proof across the provenance layers")
	}

	// One retract of a base fact: its cone becomes tombstones.
	gone := u.NewFact("M-5-1-7", "in", "LEAF-5-1")
	s.Delete(gone)
	c2 := e.Closure()
	if got := reg.Value("lsdb_rules_rebuilds_total", "kind", "delete"); got != 1 {
		t.Fatalf("delete rebuilds = %g, want 1", got)
	}
	if builds() != 1 || folds() != 0 {
		t.Errorf("one retract built a posting index: builds %g, folds %g", builds(), folds())
	}
	if !sharesBase(t, c0, c2, bystander) {
		t.Error("the snapshot after one retract does not share its predecessor's base")
	}
	if st2 := c2.IndexStats(); st2.Tombstones == 0 || st2.Tombstones > 64 || st2.Delta != st.Delta {
		t.Errorf("layers after one retract: %+v", st2)
	} else if got := reg.Value("lsdb_closure_tombstones"); got != float64(st2.Tombstones) {
		t.Errorf("tombstone gauge %g, IndexStats %d", got, st2.Tombstones)
	}
	if c2.Has(gone) || !c1.Has(gone) || e.Explain(u.NewFact("M-5-1-7", "ATTR-ROOT-0", "VAL-ROOT-0")) != "" {
		t.Error("the retracted cone is still in the closure, or left the old snapshot")
	}

	// Enough writes to cross the fold threshold: exactly one fold, at
	// which the layers empty into a new base.
	writes := 0
	for ; folds() == 0; writes++ {
		if writes > 400 {
			t.Fatalf("no fold after %d writes (layers %+v)", writes, e.Closure().IndexStats())
		}
		s.Insert(u.NewFact(fmt.Sprintf("LATE-%d", writes), "in", "LEAF-1-1"))
		e.Closure()
	}
	cf := e.Closure()
	if folds() != 1 || builds() != 2 || reg.Value("lsdb_index_seal_ns") != 2 {
		t.Errorf("crossing the threshold: folds %g, builds %g, want 1 and 2", folds(), builds())
	}
	if stf := cf.IndexStats(); stf.Delta != 0 || stf.Tombstones != 0 || stf.Facts != cf.Len() {
		t.Errorf("layers after the fold: %+v", stf)
	}
	if sharesBase(t, c0, cf, bystander) {
		t.Error("the folded snapshot still reads the old base")
	}
	if c0.Len() != c1.Len()-st.Delta || c0.Has(newbie) {
		t.Error("the fold disturbed an older snapshot")
	}
	if full := reg.Value("lsdb_rules_rebuilds_total", "kind", "full"); full != 1 {
		t.Errorf("full rebuilds = %g, want 1", full)
	}

	// The maintained closure and its provenance equal a fresh build.
	maintained := cf.Facts()
	whys := make(map[fact.Fact]string)
	for i := 0; i < len(maintained); i += 97 {
		whys[maintained[i]] = e.Explain(maintained[i])
	}
	e.Invalidate()
	fresh := e.Closure()
	if fresh.Len() != len(maintained) {
		t.Fatalf("maintained closure has %d facts, a fresh build %d", len(maintained), fresh.Len())
	}
	for _, f := range maintained {
		if !fresh.Has(f) {
			t.Fatalf("maintained closure has %s, a fresh build does not", u.FormatFact(f))
		}
	}
	for f, why := range whys {
		if got := e.Explain(f); (got == "") != (why == "") {
			t.Errorf("Explain(%s): maintained %q, fresh %q", u.FormatFact(f), why, got)
		}
	}
}

// TestEntitiesCarriedAcrossInserts: once a snapshot's entity list is
// computed, an insert-only window hands it on — merged with the new
// facts' IDs — instead of leaving the next ∀-query to rescan the
// closure. A delete window recomputes lazily.
func TestEntitiesCarriedAcrossInserts(t *testing.T) {
	u, s, e, _ := layeredWorld(t)
	if e.current().entities.Load() != nil {
		t.Fatal("entity list computed before anyone asked")
	}
	before := e.ClosureEntities()

	s.Insert(u.NewFact("M-0-0-1", "ATTR-ROOT-0", "VAL-ROOT-1")) // known entities only
	snap := e.current()
	if p := snap.entities.Load(); p == nil {
		t.Fatal("insert-only window dropped the entity list")
	} else if &(*p)[0] != &before[0] {
		t.Error("no new entity, but the list was copied")
	}

	s.Insert(u.NewFact("STRANGER", "KNOWS", "M-0-0-1"))
	snap = e.current()
	p := snap.entities.Load()
	if p == nil {
		t.Fatal("insert-only window dropped the entity list")
	}
	if want := snap.closure.Entities(); !slices.Equal(*p, want) {
		t.Errorf("carried entity list has %d ids, a rescan %d", len(*p), len(want))
	}
	if len(*p) != len(before)+2 || len(before) != len(slices.Compact(slices.Clone(before))) {
		t.Errorf("carried list grew from %d to %d ids, want +2 (STRANGER, KNOWS)", len(before), len(*p))
	}

	s.Delete(u.NewFact("STRANGER", "KNOWS", "M-0-0-1"))
	if e.current().entities.Load() != nil {
		t.Error("delete window carried an entity list it cannot vouch for")
	}
	if got := e.ClosureEntities(); !slices.Equal(got, before) {
		t.Errorf("entity list after the retract has %d ids, want the original %d", len(got), len(before))
	}
}

// TestReadersHoldSnapshotsAcrossFolds is the -race half: readers keep
// reading snapshot n — Len, a full scan, point lookups —
// while the writer builds and publishes n+1 … n+k over the same
// shared base, across at least one fold. A held snapshot must never
// change, whatever its successors do to the layers they share.
func TestReadersHoldSnapshotsAcrossFolds(t *testing.T) {
	u, s, e, reg := layeredWorld(t)
	e.Closure()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := e.current()
				c := snap.closure
				n := c.Len()
				probe := u.NewFact(fmt.Sprintf("M-%d-%d-%d", g, i%5, i%40), "ATTR-ROOT-1", "VAL-ROOT-1")
				had := c.Has(probe)
				for round := 0; round < 3; round++ {
					if got := c.Count(sym.None, sym.None, sym.None); got != n || c.Len() != n {
						t.Errorf("held snapshot changed size: %d -> %d", n, got)
						return
					}
					if c.Has(probe) != had {
						t.Errorf("held snapshot changed its mind about %s", u.FormatFact(probe))
						return
					}
					if ents := e.ClosureEntities(); len(ents) == 0 {
						t.Error("empty entity list")
						return
					}
				}
			}
		}(g)
	}
	for i := 0; reg.Value("lsdb_closure_folds_total") < 2; i++ {
		if i > 1000 {
			t.Errorf("fewer than two folds after %d writes", i)
			break
		}
		f := u.NewFact(fmt.Sprintf("W-%d", i), "in", fmt.Sprintf("LEAF-%d-%d", i%8, i%5))
		s.Insert(f)
		e.Closure()
		if i%3 == 2 {
			s.Delete(u.NewFact(fmt.Sprintf("M-%d-%d-%d", i%3, i%5, (i/3)%40), "in", fmt.Sprintf("LEAF-%d-%d", i%3, i%5)))
			e.Closure()
		}
	}
	close(done)
	readers.Wait()
}
