package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/fact"
	"repro/internal/sym"
)

// sortedTriples canonicalizes a result set for comparison.
func sortedTriples(fs []fact.Fact) []fact.Fact {
	out := append([]fact.Fact(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.T < b.T
	})
	return out
}

func sameFactSet(a, b []fact.Fact) bool {
	sa, sb := sortedTriples(a), sortedTriples(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// randomWorld inserts n random facts over small domains (guaranteeing
// bucket collisions in every index) and returns the store.
func randomWorld(u *fact.Universe, rng *rand.Rand, n int) *Store {
	s := New(u)
	for i := 0; i < n; i++ {
		s.Insert(fact.Fact{
			S: u.Intern(fmt.Sprintf("E%d", rng.Intn(40))),
			R: u.Intern(fmt.Sprintf("R%d", rng.Intn(6))),
			T: u.Intern(fmt.Sprintf("E%d", rng.Intn(40))),
		})
	}
	return s
}

// TestSealedPostingsEquivalence compares every template class between
// a mutable store and its sealed (posting-list) clone on random
// worlds: Match, MatchAll, Count, EstimateCount, Has, plus the
// whole-store views (Len, Entities, Relationships, Degree).
func TestSealedPostingsEquivalence(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(42))
	mut := randomWorld(u, rng, 600)
	sealed := mut.Clone()
	sealed.Seal()

	if mut.Len() != sealed.Len() {
		t.Fatalf("Len: mutable %d, sealed %d", mut.Len(), sealed.Len())
	}
	probes := []sym.ID{sym.None}
	for i := 0; i < 12; i++ {
		probes = append(probes, u.Intern(fmt.Sprintf("E%d", rng.Intn(45)))) // some absent
	}
	rels := []sym.ID{sym.None, u.Intern("R0"), u.Intern("R3"), u.Intern("RMISSING")}
	for _, s := range probes {
		for _, r := range rels {
			for _, tt := range probes {
				wantAll := mut.MatchAll(s, r, tt)
				gotAll := sealed.MatchAll(s, r, tt)
				if !sameFactSet(wantAll, gotAll) {
					t.Fatalf("MatchAll(%d,%d,%d): mutable %d facts, sealed %d", s, r, tt, len(wantAll), len(gotAll))
				}
				if mc, sc := mut.Count(s, r, tt), sealed.Count(s, r, tt); mc != sc {
					t.Fatalf("Count(%d,%d,%d): mutable %d, sealed %d", s, r, tt, mc, sc)
				}
				if me, se := mut.EstimateCount(s, r, tt), sealed.EstimateCount(s, r, tt); me != se {
					t.Fatalf("EstimateCount(%d,%d,%d): mutable %d, sealed %d", s, r, tt, me, se)
				}
			}
		}
	}
	for _, f := range mut.Facts() {
		if !sealed.Has(f) {
			t.Fatalf("sealed store missing %v", f)
		}
	}
	if !sealed.Has(u.NewFact("E0", "R0", "E1")) == mut.Has(u.NewFact("E0", "R0", "E1")) {
		t.Fatal("Has disagreement on probe fact")
	}
	me, se := mut.Entities(), sealed.Entities()
	if len(me) != len(se) {
		t.Fatalf("Entities: mutable %d, sealed %d", len(me), len(se))
	}
	for i := range me {
		if me[i] != se[i] {
			t.Fatalf("Entities[%d]: %d vs %d", i, me[i], se[i])
		}
	}
	mr, sr := mut.Relationships(), sealed.Relationships()
	if fmt.Sprint(mr) != fmt.Sprint(sr) {
		t.Fatalf("Relationships: %v vs %v", mr, sr)
	}
	for _, id := range probes[1:] {
		if mut.Degree(id) != sealed.Degree(id) {
			t.Fatalf("Degree(%d): mutable %d, sealed %d", id, mut.Degree(id), sealed.Degree(id))
		}
		if mut.HasEntity(id) != sealed.HasEntity(id) {
			t.Fatalf("HasEntity(%d) disagrees", id)
		}
	}
}

// TestMatchAllSealedPostingBucket mirrors TestMatchAllSealedSharesBucket
// for the posting-backed patterns (RT, ST, R, T): the materialized
// result must be exact-size (len == cap) so a caller append reallocates
// instead of clobbering anything, and a second query must see the
// original facts.
func TestMatchAllSealedPostingBucket(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 4; i++ {
		s.Insert(u.NewFact(fmt.Sprintf("s%d", i), "R", "HUB"))
	}
	s.Seal()
	shapes := []struct {
		name    string
		s, r, t sym.ID
	}{
		{"RT", sym.None, u.Entity("R"), u.Entity("HUB")},
		{"T", sym.None, sym.None, u.Entity("HUB")},
		{"R", sym.None, u.Entity("R"), sym.None},
		{"ST", u.Entity("s1"), sym.None, u.Entity("HUB")},
	}
	for _, sh := range shapes {
		got := s.MatchAll(sh.s, sh.r, sh.t)
		if len(got) == 0 {
			t.Fatalf("%s: empty result", sh.name)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: capacity %d > length %d: append would clobber shared memory", sh.name, cap(got), len(got))
		}
		before := append([]fact.Fact(nil), got...)
		_ = append(got, fact.Fact{S: 999, R: 999, T: 999})
		again := s.MatchAll(sh.s, sh.r, sh.t)
		if !sameFactSet(before, again) {
			t.Fatalf("%s: result changed after caller append: %v vs %v", sh.name, before, again)
		}
	}
	// The all-wildcard zero-copy view gets the same clip treatment.
	all := s.MatchAll(sym.None, sym.None, sym.None)
	if cap(all) != len(all) {
		t.Fatalf("all-wildcard: capacity %d > length %d", cap(all), len(all))
	}
	_ = append(all, fact.Fact{S: 999, R: 999, T: 999})
	if s.Len() != 4 {
		t.Fatalf("store length changed to %d after append to all-wildcard view", s.Len())
	}
}

// TestSealedConcurrentReaders hammers one sealed index from many
// goroutines mixing every read entry point; run under -race this
// proves the frozen postings are safely shareable without locks.
func TestSealedConcurrentReaders(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(7))
	s := randomWorld(u, rng, 2000)
	want := s.Len()
	s.Seal()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				e := u.Intern(fmt.Sprintf("E%d", r.Intn(40)))
				rel := u.Intern(fmt.Sprintf("R%d", r.Intn(6)))
				switch i % 6 {
				case 0:
					s.Match(e, sym.None, sym.None, func(fact.Fact) bool { return true })
				case 1:
					if got := s.MatchAll(sym.None, rel, e); len(got) != s.Count(sym.None, rel, e) {
						t.Errorf("MatchAll/Count mismatch")
						return
					}
				case 2:
					s.Has(fact.Fact{S: e, R: rel, T: e})
				case 3:
					s.EstimateCount(sym.None, rel, sym.None)
				case 4:
					s.Degree(e)
				case 5:
					if s.Len() != want {
						t.Errorf("Len changed under readers")
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSealedFromFacts checks the bulk-load constructor against the
// insert-then-Seal path, including duplicate collapsing.
func TestSealedFromFacts(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(11))
	mut := randomWorld(u, rng, 300)
	fs := mut.Facts()
	fs = append(fs, fs[0], fs[10], fs[20]) // duplicates must collapse
	bulk := SealedFromFacts(u, fs)
	mut.Seal()

	if bulk.Len() != mut.Len() {
		t.Fatalf("Len: bulk %d, sealed %d", bulk.Len(), mut.Len())
	}
	if !bulk.Sealed() {
		t.Fatal("SealedFromFacts store not sealed")
	}
	if !sameFactSet(bulk.Facts(), mut.Facts()) {
		t.Fatal("fact sets differ")
	}
	is, ms := bulk.IndexStats(), mut.IndexStats()
	if is != ms {
		t.Fatalf("IndexStats differ: bulk %+v, sealed %+v", is, ms)
	}
	if is.Facts != bulk.Len() || is.Buckets() == 0 || is.PostingBytes == 0 {
		t.Fatalf("implausible IndexStats %+v", is)
	}
	if v := bulk.Version(); v != uint64(bulk.Len()) {
		t.Fatalf("bulk version %d, want %d", v, bulk.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mutation of SealedFromFacts store did not panic")
			}
		}()
		bulk.Insert(u.NewFact("X", "Y", "Z"))
	}()
}

// TestSealIdempotent: sealing twice must not rebuild or corrupt.
func TestSealIdempotent(t *testing.T) {
	u, s := mk(t)
	s.Insert(u.NewFact("A", "R", "B"))
	s.Seal()
	st := s.IndexStats()
	s.Seal()
	if s.IndexStats() != st {
		t.Fatal("second Seal changed the index")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestSealedCloneRoundTrip: sealing, cloning back to mutable, mutating
// the clone, and re-sealing must behave like a fresh store.
func TestSealedCloneRoundTrip(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(3))
	s := randomWorld(u, rng, 200)
	want := s.Facts()
	s.Seal()
	c := s.Clone()
	if c.Sealed() {
		t.Fatal("clone of sealed store is sealed")
	}
	if !sameFactSet(c.Facts(), want) {
		t.Fatal("clone lost facts")
	}
	extra := u.NewFact("NEW", "REL", "TGT")
	if !c.Insert(extra) {
		t.Fatal("clone refused insert")
	}
	c.Seal()
	if !c.Has(extra) || c.Len() != len(want)+1 {
		t.Fatal("re-sealed clone wrong")
	}
	if s.Has(extra) {
		t.Fatal("original sealed store changed")
	}
}

// TestUvarintRunCodec pins the exported posting-run codec shared with
// the keyword search index: round trip, early stop, and the delta
// property that ascending runs with small gaps stay ~1 byte/element.
func TestUvarintRunCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		run := make([]uint32, 0, n)
		cur := uint32(0)
		for i := 0; i < n; i++ {
			cur += uint32(rng.Intn(1000)) + 1
			run = append(run, cur)
		}
		enc := AppendUvarintRun(nil, run)
		got := DecodeUvarintRun(enc, uint32(len(run)), nil)
		if len(got) != len(run) {
			t.Fatalf("trial %d: decoded %d ids, want %d", trial, len(got), len(run))
		}
		for i := range run {
			if got[i] != run[i] {
				t.Fatalf("trial %d: id[%d] = %d, want %d", trial, i, got[i], run[i])
			}
		}
		// Early stop: the streaming decoder honors fn returning false.
		seen := 0
		complete := EachUvarintRun(enc, uint32(len(run)), func(uint32) bool {
			seen++
			return seen < 3
		})
		if len(run) >= 3 && (complete || seen != 3) {
			t.Fatalf("trial %d: early stop saw %d (complete=%v)", trial, seen, complete)
		}
	}
	// Dense ascending runs encode at one byte per element after the head.
	dense := make([]uint32, 1000)
	for i := range dense {
		dense[i] = uint32(1<<20) + uint32(i)
	}
	enc := AppendUvarintRun(nil, dense)
	if len(enc) > len(dense)+4 {
		t.Fatalf("dense run encoded to %d bytes, want ≤ %d", len(enc), len(dense)+4)
	}
}

// refPostings is the map-based index buildPostings replaced, kept as
// the reference the array directories are checked against: one map
// per directory and its own posting arena.
type refPostings struct {
	byS        map[sym.ID]span
	bySR       map[pair]span
	byR, byT   map[sym.ID]plist
	byRT, byST map[pair]plist
	enc        []byte
}

// refBuildPostings is the map-based encoder: per-key ID lists
// gathered in one pass over the sorted facts, keys sorted, runs
// appended to the arena in key order, index by index (R, T, RT, ST).
func refBuildPostings(fs []fact.Fact) *refPostings {
	p := &refPostings{byS: map[sym.ID]span{}, bySR: map[pair]span{}}
	for i := 0; i < len(fs); {
		j := i
		for j < len(fs) && fs[j].S == fs[i].S {
			k := j
			for k < len(fs) && fs[k].S == fs[i].S && fs[k].R == fs[j].R {
				k++
			}
			p.bySR[pair{fs[j].S, fs[j].R}] = span{uint32(j), uint32(k)}
			j = k
		}
		p.byS[fs[i].S] = span{uint32(i), uint32(j)}
		i = j
	}
	idLess := func(a, b sym.ID) bool { return a < b }
	pairLess := func(a, b pair) bool { return a.a < b.a || a.a == b.a && a.b < b.b }
	p.byR = refEncodeRuns(p, fs, func(f fact.Fact) sym.ID { return f.R }, idLess)
	p.byT = refEncodeRuns(p, fs, func(f fact.Fact) sym.ID { return f.T }, idLess)
	p.byRT = refEncodeRuns(p, fs, func(f fact.Fact) pair { return pair{f.R, f.T} }, pairLess)
	p.byST = refEncodeRuns(p, fs, func(f fact.Fact) pair { return pair{f.S, f.T} }, pairLess)
	return p
}

func refEncodeRuns[K comparable](p *refPostings, fs []fact.Fact, keyOf func(fact.Fact) K, less func(K, K) bool) map[K]plist {
	ids := make(map[K][]uint32)
	for i, f := range fs {
		k := keyOf(f)
		ids[k] = append(ids[k], uint32(i))
	}
	keys := make([]K, 0, len(ids))
	for k := range ids {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	out := make(map[K]plist, len(ids))
	for _, k := range keys {
		out[k] = plist{off: uint32(len(p.enc)), n: uint32(len(ids[k]))}
		p.enc = AppendUvarintRun(p.enc, ids[k])
	}
	return out
}

// samePostings reports the first difference between an index and the
// map reference over the same facts: the arena byte for byte; then
// every key of every reference map, which must return the same span
// or run from the directories; then absent keys, which must return
// nothing — ID 0, top+1, top+1000, and every key that exists only in
// another column; and last the key counts, so that no directory holds
// a key the reference lacks.
func samePostings(got *postings, want *refPostings) string {
	if !bytes.Equal(got.enc, want.enc) {
		return fmt.Sprintf("enc arena differs: %d bytes, want %d", len(got.enc), len(want.enc))
	}
	sr := func(k pair) span { return got.srSpan(k.a, k.b) }
	rt := func(k pair) plist { return got.byRT.get(k.a, k.b) }
	st := func(k pair) plist { return got.byST.get(k.a, k.b) }
	r := func(k sym.ID) plist { return idRun(got.byR, k) }
	tt := func(k sym.ID) plist { return idRun(got.byT, k) }
	for _, d := range []string{
		sameLookups("byS", want.byS, got.sSpan),
		sameLookups("bySR", want.bySR, sr),
		sameLookups("byR", want.byR, r),
		sameLookups("byT", want.byT, tt),
		sameLookups("byRT", want.byRT, rt),
		sameLookups("byST", want.byST, st),
	} {
		if d != "" {
			return d
		}
	}

	var top sym.ID
	ids := []sym.ID{0}
	for _, m := range []map[sym.ID]plist{want.byR, want.byT} {
		for k := range m {
			ids, top = append(ids, k), max(top, k)
		}
	}
	for k := range want.byS {
		ids, top = append(ids, k), max(top, k)
	}
	ids = append(ids, top+1, top+1000)
	pairs := []pair{{0, 0}, {top + 1, top + 1}, {top + 1000, 1}, {1, top + 1000}}
	for _, m := range []map[pair]plist{want.byRT, want.byST} {
		for k := range m {
			pairs = append(pairs, k, pair{k.a, top + 1}, pair{top + 1, k.b}, pair{k.a, 0})
		}
	}
	for k := range want.bySR {
		pairs = append(pairs, k)
	}
	for _, k := range ids {
		if _, ok := want.byS[k]; !ok && got.sSpan(k).hi != got.sSpan(k).lo {
			return fmt.Sprintf("byS: absent key %d returns %v", k, got.sSpan(k))
		}
		if _, ok := want.byR[k]; !ok && r(k) != (plist{}) {
			return fmt.Sprintf("byR: absent key %d returns %v", k, r(k))
		}
		if _, ok := want.byT[k]; !ok && tt(k) != (plist{}) {
			return fmt.Sprintf("byT: absent key %d returns %v", k, tt(k))
		}
	}
	for _, k := range pairs {
		if _, ok := want.bySR[k]; !ok && sr(k).hi != sr(k).lo {
			return fmt.Sprintf("bySR: absent key %v returns %v", k, sr(k))
		}
		if _, ok := want.byRT[k]; !ok && rt(k) != (plist{}) {
			return fmt.Sprintf("byRT: absent key %v returns %v", k, rt(k))
		}
		if _, ok := want.byST[k]; !ok && st(k) != (plist{}) {
			return fmt.Sprintf("byST: absent key %v returns %v", k, st(k))
		}
	}

	present := func(dir []plist) int {
		n := 0
		for _, pl := range dir {
			if pl.n != 0 {
				n++
			}
		}
		return n
	}
	nS := 0
	for i := 0; i+1 < len(got.sOff); i++ {
		if got.sOff[i] != got.sOff[i+1] {
			nS++
		}
	}
	switch {
	case nS != len(want.byS) || got.spanKeys != len(want.byS)+len(want.bySR):
		return fmt.Sprintf("span keys: %d S of %d, want %d S of %d", nS, got.spanKeys, len(want.byS), len(want.byS)+len(want.bySR))
	case present(got.byR) != len(want.byR) || present(got.byT) != len(want.byT):
		return fmt.Sprintf("R/T keys: %d/%d, want %d/%d", present(got.byR), present(got.byT), len(want.byR), len(want.byT))
	case len(got.byRT.run) != len(want.byRT) || len(got.byST.run) != len(want.byST):
		return fmt.Sprintf("RT/ST keys: %d/%d, want %d/%d", len(got.byRT.run), len(got.byST.run), len(want.byRT), len(want.byST))
	case got.runKeys != len(want.byR)+len(want.byT)+len(want.byRT)+len(want.byST):
		return fmt.Sprintf("run keys: %d", got.runKeys)
	}
	return ""
}

// sameLookups checks that every key of a reference map returns its
// value from the directory lookup get.
func sameLookups[K comparable, V comparable](name string, want map[K]V, get func(K) V) string {
	for k, v := range want {
		if g := get(k); g != v {
			return fmt.Sprintf("%s: key %v returns %v, want %v", name, k, g, v)
		}
	}
	return ""
}

// checkEncoder builds fs both ways and fails on any difference.
func checkEncoder(t *testing.T, name string, fs []fact.Fact) {
	t.Helper()
	slices.SortFunc(fs, fact.Compare)
	fs = slices.Compact(fs)
	if diff := samePostings(buildPostings(fs), refBuildPostings(fs)); diff != "" {
		t.Errorf("%s (%d facts): %s", name, len(fs), diff)
	}
}

// TestBuildPostingsMatchesReference pins the counting-sort encoder to
// the map-based one: the same arena byte for byte, and directories
// that answer every key of the reference maps alike and every other
// key with nothing.
func TestBuildPostingsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n, ids int) []fact.Fact {
		fs := make([]fact.Fact, n)
		for i := range fs {
			fs[i] = fact.Fact{S: sym.ID(rng.Intn(ids) + 1), R: sym.ID(rng.Intn(ids) + 1), T: sym.ID(rng.Intn(ids) + 1)}
		}
		return fs
	}
	// The largest ID a universe of a million names hands out, next to
	// the smallest, so the counters' last slot is used.
	const top = 1 << 20
	near := []fact.Fact{{S: top, R: top, T: top}, {S: 1, R: top, T: 1}, {S: top - 1, R: 1, T: top}, {S: 1, R: 1, T: 1}}
	skewed := random(2000, 400)
	for i := range skewed[:1500] { // one hub relationship and one hub target
		skewed[i].R, skewed[i].T = 3, 5
	}
	for _, tc := range []struct {
		name string
		fs   []fact.Fact
	}{
		{"empty", nil},
		{"single fact", []fact.Fact{{S: 1, R: 2, T: 3}}},
		{"single key", []fact.Fact{{S: 4, R: 4, T: 4}, {S: 4, R: 4, T: 5}, {S: 4, R: 4, T: 6}}},
		{"ids near the universe maximum", near},
		{"skewed keys", skewed},
		{"dense random", random(3000, 30)},
		{"sparse random", random(3000, 5000)},
	} {
		checkEncoder(t, tc.name, tc.fs)
	}
}

// FuzzBuildPostings checks the counting-sort encoder against the
// map-based reference on arbitrary fact sets: each 6 bytes of input
// are one fact, two bytes per position, so keys collide often.
func FuzzBuildPostings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs []fact.Fact
		for ; len(data) >= 6; data = data[6:] {
			id := func(i int) sym.ID { return sym.ID(binary.BigEndian.Uint16(data[i:]) + 1) }
			fs = append(fs, fact.Fact{S: id(0), R: id(2), T: id(4)})
		}
		checkEncoder(t, "fuzz input", fs)
	})
}

// TestSealedReadsOutOfRange: the directories are arrays over the IDs
// the base holds, so a key past their end must read as absent, never
// index out of range. For all eight bind patterns, Has, Match,
// MatchAll and EstimateCount return nothing on the empty base, and on
// a sealed store for every pattern that binds an ID above its largest.
// The reads stay allocation-free, as they were with hash directories.
func TestSealedReadsOutOfRange(t *testing.T) {
	u := fact.NewUniverse()
	s := randomWorld(u, rand.New(rand.NewSource(5)), 600)
	s.Seal()
	var top sym.ID
	for _, f := range s.Facts() {
		top = max(top, f.S, f.R, f.T)
	}
	in := s.Facts()[7]
	empty := New(u)
	empty.Seal()
	if empty.base != emptyBase {
		t.Fatal("an empty sealed store does not read the empty base")
	}
	nothing := func(name string, st *Store, src, rel, tgt sym.ID) {
		t.Helper()
		if src != sym.None && rel != sym.None && tgt != sym.None && st.Has(fact.Fact{S: src, R: rel, T: tgt}) {
			t.Errorf("%s: Has(%d,%d,%d)", name, src, rel, tgt)
		}
		if !st.Match(src, rel, tgt, func(f fact.Fact) bool {
			t.Errorf("%s: Match(%d,%d,%d) yields %v", name, src, rel, tgt, f)
			return false
		}) {
			return
		}
		if got := st.MatchAll(src, rel, tgt); len(got) != 0 {
			t.Errorf("%s: MatchAll(%d,%d,%d) = %v", name, src, rel, tgt, got)
		}
		if n := st.EstimateCount(src, rel, tgt); n != 0 {
			t.Errorf("%s: EstimateCount(%d,%d,%d) = %d", name, src, rel, tgt, n)
		}
	}
	for mask := 0; mask < 8; mask++ {
		pick := func(bit int, id sym.ID) sym.ID {
			if mask&bit == 0 {
				return sym.None
			}
			return id
		}
		nothing("empty base", empty, pick(4, in.S), pick(2, in.R), pick(1, in.T))
		// Every bound position either in range or above the largest
		// ID, at least one above.
		for out := 1; out < 8; out++ {
			if out&^mask != 0 {
				continue
			}
			at := func(bit int, id sym.ID) sym.ID {
				if out&bit != 0 {
					return pick(bit, top+1+sym.ID(bit)*1000)
				}
				return pick(bit, id)
			}
			nothing("above the largest ID", s, at(4, in.S), at(2, in.R), at(1, in.T))
		}
	}

	fn := func(fact.Fact) bool { return true }
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Has", func() { s.Has(in) }},
		{"Has, absent", func() { s.Has(fact.Fact{S: in.S, R: in.R, T: top + 1}) }},
		{"EstimateCount (S, R)", func() { s.EstimateCount(in.S, in.R, sym.None) }},
		{"EstimateCount (R, T)", func() { s.EstimateCount(sym.None, in.R, in.T) }},
		{"EstimateCount (T)", func() { s.EstimateCount(sym.None, sym.None, in.T) }},
		{"span Match (S, R)", func() { s.Match(in.S, in.R, sym.None, fn) }},
		{"span Match (S)", func() { s.Match(in.S, sym.None, sym.None, fn) }},
		{"posting Match (R, T)", func() { s.Match(sym.None, in.R, in.T, fn) }},
		{"posting Match (S, T)", func() { s.Match(in.S, sym.None, in.T, fn) }},
		{"posting Match (R)", func() { s.Match(sym.None, in.R, sym.None, fn) }},
	} {
		if a := testing.AllocsPerRun(100, c.op); a != 0 {
			t.Errorf("%s allocates %v per call, want 0", c.name, a)
		}
	}
}
