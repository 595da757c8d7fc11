package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/sym"
)

// sealedWorld returns a sealed (fully folded) store of about n facts
// and the facts in it.
func sealedWorld(t *testing.T, u *fact.Universe, n int) (*Store, []fact.Fact) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := New(u)
	for s.Len() < n {
		s.Insert(u.NewFact(fmt.Sprintf("E%d", rng.Intn(n/4)), fmt.Sprintf("R%d", rng.Intn(8)), fmt.Sprintf("E%d", rng.Intn(n/4))))
	}
	s.Seal()
	if st := s.IndexStats(); st.Delta != 0 || st.Tombstones != 0 || st.Facts != s.Len() {
		t.Fatalf("first Seal did not fold: %+v", st)
	}
	return s, s.Facts()
}

// TestCloneSharesBase pins the O(delta) claims on the store itself: a
// clone of a sealed store shares its base by pointer and allocates a
// constant amount, mutations land in the delta and tombstone layers,
// and Seal below the fold threshold freezes the layers without
// building a posting index.
func TestCloneSharesBase(t *testing.T) {
	u := fact.NewUniverse()
	s, fs := sealedWorld(t, u, 20000)

	if allocs := testing.AllocsPerRun(10, func() { s.Clone() }); allocs > 24 {
		t.Errorf("Clone of a sealed %d-fact store with an empty delta made %.0f allocations, want a constant few", s.Len(), allocs)
	}

	c := s.Clone()
	if c.base != s.base {
		t.Fatal("clone does not share the base")
	}
	fresh := u.NewFact("FRESH", "R0", "E1")
	if !c.Insert(fresh) || !c.Delete(fs[0]) || !c.Delete(fs[1]) {
		t.Fatal("clone refused mutations")
	}
	if c.Insert(fs[2]) || c.Delete(u.NewFact("ABSENT", "R0", "E1")) {
		t.Fatal("no-op mutations reported a change")
	}
	c.Seal()
	if c.base != s.base {
		t.Error("Seal below the fold threshold rebuilt the base")
	}
	if st := c.IndexStats(); st.Delta != 1 || st.Tombstones != 2 || st.Facts != s.Len() {
		t.Errorf("layers after 1 insert + 2 deletes: %+v", st)
	}
	if c.Len() != s.Len()-1 || !c.Has(fresh) || c.Has(fs[0]) || c.Has(fs[1]) || !c.Has(fs[2]) {
		t.Error("layered reads disagree with the mutations applied")
	}
	if !s.Has(fs[0]) || s.Has(fresh) || s.Len() != len(fs) {
		t.Error("mutating the clone changed the original")
	}

	// A clone of a layered store copies the layers, still not the base.
	c2 := c.Clone()
	if c2.base != s.base || c2.Len() != c.Len() || !c2.Has(fresh) || c2.Has(fs[0]) {
		t.Error("clone of a layered store lost its layers or its base")
	}
}

// TestResurrect: re-inserting a tombstoned base fact drops the
// tombstone instead of shadowing it with a delta copy, and deleting a
// delta fact leaves no tombstone — the layers hold only net changes.
func TestResurrect(t *testing.T) {
	u := fact.NewUniverse()
	s, fs := sealedWorld(t, u, 400)
	c := s.Clone()
	v := c.Version()
	if !c.Delete(fs[3]) || c.Has(fs[3]) {
		t.Fatal("delete of a base fact failed")
	}
	if !c.Insert(fs[3]) || !c.Has(fs[3]) {
		t.Fatal("resurrecting a tombstoned fact failed")
	}
	extra := u.NewFact("EXTRA", "R1", "E2")
	if !c.Insert(extra) || !c.Delete(extra) || c.Has(extra) {
		t.Fatal("insert+delete of a delta fact failed")
	}
	if st := c.IndexStats(); st.Delta != 0 || st.Tombstones != 0 {
		t.Errorf("layers not empty after net-zero mutations: %+v", st)
	}
	if c.Version() != v+4 {
		t.Errorf("version advanced by %d, want 4 (every effective mutation counts)", c.Version()-v)
	}
	if chs, ok := c.ChangesSince(v); !ok || len(chs) != 4 || !chs[0].Deleted || chs[1].Deleted {
		t.Errorf("history across a resurrect: %v, %v", chs, ok)
	}
	if n := c.EstimateCount(fs[3].S, sym.None, sym.None); n != s.EstimateCount(fs[3].S, sym.None, sym.None) {
		t.Errorf("estimate after resurrect = %d, want the original's", n)
	}
}

// TestSealFoldsPastThreshold walks a clone's delta across the fold
// rule: one fact short of base/foldFraction Seal keeps the shared
// base, at it Seal folds — new base, empty layers, same fact set.
func TestSealFoldsPastThreshold(t *testing.T) {
	u := fact.NewUniverse()
	s, fs := sealedWorld(t, u, 1600)
	need := (s.Len() + foldFraction - 1) / foldFraction
	mutate := func(c *Store, n int) {
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				c.Delete(fs[i])
			} else {
				c.Insert(u.NewFact(fmt.Sprintf("NEW%d", i), "R0", "E0"))
			}
		}
	}
	below := s.Clone()
	mutate(below, need-1)
	below.Seal()
	if below.base != s.base {
		t.Errorf("%d changes on a %d-fact base folded, want the base kept until %d", need-1, s.Len(), need)
	}
	at := s.Clone()
	mutate(at, need)
	want := at.Facts()
	at.Seal()
	if at.base == s.base {
		t.Fatalf("%d changes on a %d-fact base did not fold", need, s.Len())
	}
	if st := at.IndexStats(); st.Delta != 0 || st.Tombstones != 0 || st.Facts != len(want) {
		t.Errorf("layers after a fold: %+v, want all %d facts in the base", st, len(want))
	}
	if !sameFactSet(at.Facts(), want) {
		t.Error("fold changed the fact set")
	}
	for i := 1; i < len(at.base.facts); i++ {
		if fact.Compare(at.base.facts[i-1], at.base.facts[i]) >= 0 {
			t.Fatalf("folded base not strictly sorted at %d", i)
		}
	}
	// The fold is a merge, not a re-sort: it must equal the bulk path.
	if bulk := SealedFromFacts(u, want); bulk.IndexStats() != at.IndexStats() {
		t.Errorf("folded index %+v differs from a bulk build %+v", at.IndexStats(), bulk.IndexStats())
	}
	if !s.Has(fs[0]) || s.Len() != len(fs) {
		t.Error("folding a clone changed the original")
	}
}

// TestMatchAllLayeredNeverClobbers: whatever mix of layers answers a
// pattern, an append to the result must reallocate, never write into
// the base array or a delta bucket.
func TestMatchAllLayeredNeverClobbers(t *testing.T) {
	u := fact.NewUniverse()
	s, fs := sealedWorld(t, u, 800)
	c := s.Clone()
	f := fs[5]
	added := fact.Fact{S: f.S, R: f.R, T: u.Intern("CLOBBER-TGT")}
	c.Insert(added)
	c.Delete(fs[6])
	c.Seal()
	bogus := u.NewFact("BOGUS", "BOGUS", "BOGUS")
	for _, p := range [][3]sym.ID{
		{f.S, sym.None, sym.None}, {f.S, f.R, sym.None}, {sym.None, f.R, sym.None},
		{fs[6].S, sym.None, sym.None}, {fs[9].S, sym.None, sym.None}, {sym.None, sym.None, sym.None},
	} {
		got := c.MatchAll(p[0], p[1], p[2])
		if len(got) != c.Count(p[0], p[1], p[2]) {
			t.Fatalf("MatchAll%v: %d facts, Count %d", p, len(got), c.Count(p[0], p[1], p[2]))
		}
		_ = append(got, bogus)
		if c.Has(bogus) || s.Has(bogus) || !sameFactSet(c.MatchAll(p[0], p[1], p[2]), got) {
			t.Fatalf("append to MatchAll%v result wrote into the store", p)
		}
	}
	if !sameFactSet(s.Facts(), fs) {
		t.Error("appends clobbered the shared base")
	}
}
