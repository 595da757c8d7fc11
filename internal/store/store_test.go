package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fact"
	"repro/internal/sym"
)

func mk(t *testing.T) (*fact.Universe, *Store) {
	t.Helper()
	u := fact.NewUniverse()
	return u, New(u)
}

func TestInsertHasDelete(t *testing.T) {
	u, s := mk(t)
	f := u.NewFact("JOHN", "EARNS", "$25000")
	if s.Has(f) {
		t.Fatal("empty store has fact")
	}
	if !s.Insert(f) {
		t.Fatal("first Insert returned false")
	}
	if s.Insert(f) {
		t.Fatal("duplicate Insert returned true")
	}
	if !s.Has(f) || s.Len() != 1 {
		t.Fatal("fact not stored")
	}
	if !s.Delete(f) {
		t.Fatal("Delete returned false")
	}
	if s.Delete(f) {
		t.Fatal("second Delete returned true")
	}
	if s.Has(f) || s.Len() != 0 {
		t.Fatal("fact not deleted")
	}
}

func TestMatchAllPatterns(t *testing.T) {
	u, s := mk(t)
	facts := [][3]string{
		{"JOHN", "EARNS", "$25000"},
		{"JOHN", "OWES", "$25000"},
		{"JOHN", "EARNS", "$30000"},
		{"MARY", "EARNS", "$25000"},
		{"MARY", "LIKES", "JOHN"},
	}
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
	john, earns, d25 := u.Entity("JOHN"), u.Entity("EARNS"), u.Entity("$25000")

	cases := []struct {
		s, r, t sym.ID
		want    int
	}{
		{john, earns, d25, 1},
		{john, earns, sym.None, 2},
		{sym.None, earns, d25, 2},
		{john, sym.None, d25, 2},
		{john, sym.None, sym.None, 3},
		{sym.None, earns, sym.None, 3},
		{sym.None, sym.None, d25, 3},
		{sym.None, sym.None, sym.None, 5},
		{john, earns, u.Entity("$99"), 0},
	}
	for i, c := range cases {
		if got := s.Count(c.s, c.r, c.t); got != c.want {
			t.Errorf("case %d: Count = %d, want %d", i, got, c.want)
		}
		if got := len(s.MatchAll(c.s, c.r, c.t)); got != c.want {
			t.Errorf("case %d: MatchAll = %d, want %d", i, got, c.want)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 10; i++ {
		s.Insert(u.NewFact("A", "R", string(rune('a'+i))))
	}
	n := 0
	completed := s.Match(u.Entity("A"), sym.None, sym.None, func(fact.Fact) bool {
		n++
		return n < 3
	})
	if completed || n != 3 {
		t.Errorf("early stop: completed=%v n=%d", completed, n)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	u, s := mk(t)
	f1 := u.NewFact("A", "R", "B")
	f2 := u.NewFact("A", "R", "C")
	s.Insert(f1)
	s.Insert(f2)
	s.Delete(f1)
	for i, pattern := range [][3]sym.ID{
		{u.Entity("A"), sym.None, sym.None},
		{sym.None, u.Entity("R"), sym.None},
		{sym.None, sym.None, u.Entity("C")},
		{u.Entity("A"), u.Entity("R"), sym.None},
		{sym.None, u.Entity("R"), u.Entity("C")},
		{u.Entity("A"), sym.None, u.Entity("C")},
	} {
		got := s.MatchAll(pattern[0], pattern[1], pattern[2])
		if len(got) != 1 || got[0] != f2 {
			t.Errorf("index %d inconsistent after delete: %v", i, got)
		}
	}
	if s.Count(sym.None, sym.None, u.Entity("B")) != 0 {
		t.Error("deleted fact still reachable via T index")
	}
}

func TestEntitiesAndHasEntity(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("JOHN", "LIKES", "FELIX"))
	ents := s.Entities()
	if len(ents) != 3 {
		t.Fatalf("Entities = %d, want 3", len(ents))
	}
	if !s.HasEntity(u.Entity("LIKES")) {
		t.Error("relationship entity not in active domain")
	}
	if s.HasEntity(u.Entity("ABSENT")) {
		t.Error("absent entity reported present")
	}
	s.Delete(u.NewFact("JOHN", "LIKES", "FELIX"))
	if s.HasEntity(u.Entity("JOHN")) {
		t.Error("entity survives fact deletion")
	}
}

func TestRelationships(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("A", "R1", "B"))
	s.Insert(u.NewFact("C", "R1", "D"))
	s.Insert(u.NewFact("E", "R2", "F"))
	stats := s.Relationships()
	if len(stats) != 2 {
		t.Fatalf("Relationships = %d groups", len(stats))
	}
	if u.Name(stats[0].Rel) != "R1" || stats[0].Count != 2 {
		t.Errorf("most frequent = %s (%d)", u.Name(stats[0].Rel), stats[0].Count)
	}
}

func TestDegree(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("HUB", "R", "A"))
	s.Insert(u.NewFact("HUB", "R", "B"))
	s.Insert(u.NewFact("C", "R", "HUB"))
	if d := s.Degree(u.Entity("HUB")); d != 3 {
		t.Errorf("Degree = %d, want 3", d)
	}
}

func TestClone(t *testing.T) {
	u, s := mk(t)
	f := u.NewFact("A", "R", "B")
	s.Insert(f)
	c := s.Clone()
	if !c.Has(f) {
		t.Fatal("clone missing fact")
	}
	c.Insert(u.NewFact("X", "R", "Y"))
	if s.Len() != 1 {
		t.Error("clone mutation leaked into original")
	}
	s.Delete(f)
	if !c.Has(f) {
		t.Error("original deletion leaked into clone")
	}
}

func TestVersionAdvances(t *testing.T) {
	u, s := mk(t)
	v0 := s.Version()
	s.Insert(u.NewFact("A", "R", "B"))
	v1 := s.Version()
	if v1 <= v0 {
		t.Error("version did not advance on insert")
	}
	s.Insert(u.NewFact("A", "R", "B")) // duplicate
	if s.Version() != v1 {
		t.Error("version advanced on no-op insert")
	}
	s.Delete(u.NewFact("A", "R", "B"))
	if s.Version() <= v1 {
		t.Error("version did not advance on delete")
	}
}

// No-op writes must not move the version or enter the change history:
// downstream caches key validity on Version(), so a version bump with
// no semantic change would needlessly discard warm state.
func TestNoOpWritesKeepVersionAndHistory(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("A", "R", "B"))
	v := s.Version()

	if s.Insert(u.NewFact("A", "R", "B")) {
		t.Error("duplicate insert reported a change")
	}
	if s.Delete(u.NewFact("X", "R", "Y")) {
		t.Error("retract of an absent fact reported a change")
	}
	if got := s.Version(); got != v {
		t.Errorf("no-op writes moved the version: %d -> %d", v, got)
	}
	chs, ok := s.ChangesSince(v)
	if !ok {
		t.Fatal("ChangesSince lost a window with no writes")
	}
	if len(chs) != 0 {
		t.Errorf("no-op writes entered the change history: %v", chs)
	}
}

func TestInsertAll(t *testing.T) {
	u, s := mk(t)
	fs := []fact.Fact{
		u.NewFact("A", "R", "B"),
		u.NewFact("A", "R", "B"),
		u.NewFact("C", "R", "D"),
	}
	if n := s.InsertAll(fs); n != 2 {
		t.Errorf("InsertAll = %d, want 2", n)
	}
}

// TestQuickMatchAgainstScan cross-checks every index path against a
// brute-force scan on randomized stores.
func TestQuickMatchAgainstScan(t *testing.T) {
	u := fact.NewUniverse()
	names := []string{"A", "B", "C", "D", "E"}
	ids := make([]sym.ID, len(names))
	for i, n := range names {
		ids[i] = u.Entity(n)
	}
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(u)
		var live []fact.Fact
		for _, op := range ops {
			g := fact.Fact{
				S: ids[rng.Intn(len(ids))],
				R: ids[rng.Intn(len(ids))],
				T: ids[rng.Intn(len(ids))],
			}
			if op%3 == 0 {
				s.Delete(g)
			} else {
				s.Insert(g)
			}
		}
		live = s.Facts()
		// Try a sample of patterns.
		for trial := 0; trial < 20; trial++ {
			var p [3]sym.ID
			for i := range p {
				if rng.Intn(2) == 0 {
					p[i] = ids[rng.Intn(len(ids))]
				}
			}
			want := 0
			for _, g := range live {
				if (p[0] == sym.None || g.S == p[0]) &&
					(p[1] == sym.None || g.R == p[1]) &&
					(p[2] == sym.None || g.T == p[2]) {
					want++
				}
			}
			if got := s.Count(p[0], p[1], p[2]); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEstimateCount(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 5; i++ {
		s.Insert(u.NewFact("HUB", "R", string(rune('a'+i))))
	}
	s.Insert(u.NewFact("OTHER", "R", "a"))
	cases := []struct {
		s, r, t sym.ID
		want    int
	}{
		{u.Entity("HUB"), u.Entity("R"), u.Entity("a"), 1},
		{u.Entity("HUB"), u.Entity("R"), u.Entity("zz"), 0},
		{u.Entity("HUB"), u.Entity("R"), sym.None, 5},
		{sym.None, u.Entity("R"), u.Entity("a"), 2},
		{u.Entity("HUB"), sym.None, u.Entity("a"), 1},
		{u.Entity("HUB"), sym.None, sym.None, 5},
		{sym.None, u.Entity("R"), sym.None, 6},
		{sym.None, sym.None, u.Entity("a"), 2},
		{sym.None, sym.None, sym.None, 6},
	}
	for i, c := range cases {
		if got := s.EstimateCount(c.s, c.r, c.t); got != c.want {
			t.Errorf("case %d: EstimateCount = %d, want %d", i, got, c.want)
		}
	}
}

func TestEstimateCountMatchesCount(t *testing.T) {
	// For the plain store (no inference), estimate is exact.
	u, s := mk(t)
	rng := []string{"A", "B", "C"}
	for _, a := range rng {
		for _, b := range rng {
			s.Insert(u.NewFact(a, "R", b))
		}
	}
	for _, a := range append(rng, "") {
		for _, b := range append(rng, "") {
			var sa, sb sym.ID
			if a != "" {
				sa = u.Entity(a)
			}
			if b != "" {
				sb = u.Entity(b)
			}
			if s.EstimateCount(sa, u.Entity("R"), sb) != s.Count(sa, u.Entity("R"), sb) {
				t.Errorf("estimate != count for (%q, R, %q)", a, b)
			}
		}
	}
}

func TestMatchAllSealedSharesBucket(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 3; i++ {
		s.Insert(u.NewFact("HUB", "R", fmt.Sprintf("t%d", i)))
	}
	s.Seal()
	got := s.MatchAll(u.Entity("HUB"), sym.None, sym.None)
	if len(got) != 3 {
		t.Fatalf("MatchAll returned %d facts, want 3", len(got))
	}
	// The zero-copy return is capacity-clipped: appending must
	// reallocate rather than write into the index bucket.
	if cap(got) != len(got) {
		t.Fatalf("sealed MatchAll capacity %d > length %d: append would clobber the index", cap(got), len(got))
	}
	_ = append(got, fact.Fact{})
	if again := s.MatchAll(u.Entity("HUB"), sym.None, sym.None); len(again) != 3 {
		t.Fatalf("index bucket changed after caller append: %d facts", len(again))
	}
	// Patterns with no exact bucket still work sealed.
	if one := s.MatchAll(u.Entity("HUB"), u.Entity("R"), u.Entity("t0")); len(one) != 1 {
		t.Fatalf("fully bound sealed MatchAll returned %d facts, want 1", len(one))
	}
	if all := s.MatchAll(sym.None, sym.None, sym.None); len(all) != 3 {
		t.Fatalf("all-wildcard sealed MatchAll returned %d facts, want 3", len(all))
	}
}

func TestChangesSince(t *testing.T) {
	u, s := mk(t)
	v0 := s.Version()
	s.Insert(u.NewFact("A", "R", "B"))
	s.Insert(u.NewFact("C", "R", "D"))
	s.Delete(u.NewFact("A", "R", "B"))
	chs, ok := s.ChangesSince(v0)
	if !ok || len(chs) != 3 {
		t.Fatalf("ChangesSince = %d changes, ok=%v", len(chs), ok)
	}
	if chs[0].Deleted || !chs[2].Deleted {
		t.Errorf("change order wrong: %+v", chs)
	}
	// From the current version: empty but ok.
	chs, ok = s.ChangesSince(s.Version())
	if !ok || len(chs) != 0 {
		t.Errorf("current version: %d changes, ok=%v", len(chs), ok)
	}
	// From the future: not ok.
	if _, ok := s.ChangesSince(s.Version() + 10); ok {
		t.Error("future version reported ok")
	}
}

func TestChangesSinceHistoryBounded(t *testing.T) {
	u, s := mk(t)
	v0 := s.Version()
	for i := 0; i < maxRecent+100; i++ {
		s.Insert(u.NewFact("E", "R", fmt.Sprintf("T%d", i)))
	}
	if _, ok := s.ChangesSince(v0); ok {
		t.Error("history older than the bound still reported ok")
	}
	// Recent history is still available.
	vRecent := s.Version()
	s.Insert(u.NewFact("X", "R", "Y"))
	chs, ok := s.ChangesSince(vRecent)
	if !ok || len(chs) != 1 {
		t.Errorf("recent history lost: %d, ok=%v", len(chs), ok)
	}
}

func TestChangesSinceExactVersionNoAlloc(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("A", "R", "B"))
	v := s.Version()
	chs, ok := s.ChangesSince(v)
	if !ok {
		t.Fatal("exact version reported not ok")
	}
	if chs != nil {
		t.Errorf("exact version allocated a slice: %v", chs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ChangesSince(v)
	})
	if allocs != 0 {
		t.Errorf("ChangesSince at current version allocates %.0f times", allocs)
	}
}

func TestChangesSinceFallenBehind(t *testing.T) {
	u, s := mk(t)
	v0 := s.Version()
	for i := 0; i < maxRecent*2; i++ {
		s.Insert(u.NewFact("E", "R", fmt.Sprintf("T%d", i)))
	}
	if chs, ok := s.ChangesSince(v0); ok || chs != nil {
		t.Errorf("fallen-behind caller got (%v, %v), want (nil, false)", chs, ok)
	}
}

func TestCloneFreshHistory(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 10; i++ {
		s.Insert(u.NewFact("E", "R", fmt.Sprintf("T%d", i)))
	}
	c := s.Clone()
	if got, want := c.Version(), uint64(c.Len()); got != want {
		t.Errorf("clone version = %d, want fact count %d", got, want)
	}
	// A clone starts with empty history: its current version answers
	// (nil, true), anything earlier is out of range.
	if chs, ok := c.ChangesSince(c.Version()); !ok || chs != nil {
		t.Errorf("clone current version: (%v, %v), want (nil, true)", chs, ok)
	}
	if _, ok := c.ChangesSince(0); ok {
		t.Error("clone answered for history it never recorded")
	}
	// Mutations after the clone are tracked normally.
	v := c.Version()
	c.Insert(u.NewFact("X", "R", "Y"))
	chs, ok := c.ChangesSince(v)
	if !ok || len(chs) != 1 {
		t.Errorf("post-clone history: %d changes, ok=%v", len(chs), ok)
	}
}

func TestCloneIndexesIndependent(t *testing.T) {
	u, s := mk(t)
	e := u.Entity("E")
	s.Insert(u.NewFact("E", "R", "T1"))
	c := s.Clone()
	// Appends into a shared bucket backing array would corrupt the
	// sibling store; both must see only their own facts.
	s.Insert(u.NewFact("E", "R", "T2"))
	c.Insert(u.NewFact("E", "R", "T3"))
	if n := len(s.MatchAll(e, sym.None, sym.None)); n != 2 {
		t.Errorf("original byS bucket has %d facts, want 2", n)
	}
	if n := len(c.MatchAll(e, sym.None, sym.None)); n != 2 {
		t.Errorf("clone byS bucket has %d facts, want 2", n)
	}
	if c.Has(u.NewFact("E", "R", "T2")) || s.Has(u.NewFact("E", "R", "T3")) {
		t.Error("mutations leaked between clone and original")
	}
}

func TestSealFreezesStore(t *testing.T) {
	u, s := mk(t)
	f := u.NewFact("A", "R", "B")
	s.Insert(f)
	v := s.Version()
	s.Seal()
	if !s.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}
	if !s.Has(f) || s.Len() != 1 || s.Version() != v {
		t.Error("sealing changed observable state")
	}
	if got := s.MatchAll(u.Entity("A"), sym.None, sym.None); len(got) != 1 {
		t.Errorf("sealed Match returned %d facts, want 1", len(got))
	}
	if chs, ok := s.ChangesSince(v); !ok || chs != nil {
		t.Errorf("sealed current version: (%v, %v), want (nil, true)", chs, ok)
	}
	for _, fn := range map[string]func(){
		"Insert": func() { s.Insert(u.NewFact("X", "R", "Y")) },
		"Delete": func() { s.Delete(f) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mutation of sealed store did not panic")
				}
			}()
			fn()
		}()
	}
	// A sealed store still clones into a mutable copy.
	c := s.Clone()
	if c.Sealed() {
		t.Error("clone of sealed store is sealed")
	}
	if !c.Insert(u.NewFact("X", "R", "Y")) {
		t.Error("clone of sealed store not mutable")
	}
}
