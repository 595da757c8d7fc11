package search

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
)

func musicWorld(t *testing.T) (*fact.Universe, *store.Store) {
	t.Helper()
	u := fact.NewUniverse()
	st := store.New(u)
	for _, f := range [][3]string{
		{"MOZART", "in", "COMPOSER"},
		{"COMPOSER", "isa", "ARTIST"},
		{"ARTIST", "isa", "PERSON"},
		{"PERSON", "isa", "THING"},
		{"WOLFGANG", "syn", "MOZART"},
		{"MOZART", "BORN-IN", "SALZBURG"},
		{"JOHN", "FAVORITE-MUSIC", "MOZART"},
	} {
		if !st.Insert(u.NewFact(f[0], f[1], f[2])) {
			t.Fatalf("duplicate fact %v", f)
		}
	}
	return u, st
}

func find(res *Result, name string) *Hit {
	for i := range res.Hits {
		if res.Hits[i].Name == name {
			return &res.Hits[i]
		}
	}
	return nil
}

func TestSearchRankingSignals(t *testing.T) {
	u, st := musicWorld(t)
	s := New(st, u)

	// Exact name: MOZART first, with the whole-name bonus, ahead of
	// its synonym, its neighbors and everything else.
	res := s.Search("MOZART", Options{K: -1})
	if res.Total < 4 {
		t.Fatalf("mozart query total = %d, want ≥ 4 (self, synonym, neighbors)", res.Total)
	}
	if res.Hits[0].Name != "MOZART" || !res.Hits[0].ExactName {
		t.Fatalf("top hit = %+v, want exact-name MOZART", res.Hits[0])
	}
	wolf := find(res, "WOLFGANG")
	if wolf == nil || wolf.TermScore != FieldWeight(FieldSyn) {
		t.Fatalf("WOLFGANG synonym hit = %+v, want term score %v", wolf, FieldWeight(FieldSyn))
	}
	salz := find(res, "SALZBURG")
	if salz == nil || salz.TermScore != FieldWeight(FieldNbr) {
		t.Fatalf("SALZBURG neighborhood hit = %+v, want term score %v", salz, FieldWeight(FieldNbr))
	}

	// Taxonomy proximity: the class walk scores members at decaying
	// weight per ≺ step, reported as TaxScore.
	for _, tc := range []struct {
		q    string
		want float64
	}{
		{"composer", FieldWeight(FieldClass1)},
		{"artist", FieldWeight(FieldClass2)},
		{"person", FieldWeight(FieldClass3)},
	} {
		res := s.Search(tc.q, Options{K: -1})
		moz := find(res, "MOZART")
		if moz == nil || moz.TaxScore != tc.want {
			t.Fatalf("query %q: MOZART = %+v, want tax score %v", tc.q, moz, tc.want)
		}
	}
	// THING is four ≺ steps from MOZART — beyond the walk.
	if hit := find(s.Search("thing", Options{K: -1}), "MOZART"); hit != nil {
		t.Fatalf("MOZART matched 'thing' beyond taxonomy depth: %+v", hit)
	}

	// Prefix matching at the configured discount.
	res = s.Search("moz", Options{K: -1})
	moz := find(res, "MOZART")
	if moz == nil || moz.TermScore != PrefixFactor*FieldWeight(FieldName) {
		t.Fatalf("prefix hit = %+v, want term score %v", moz, PrefixFactor*FieldWeight(FieldName))
	}
	if res.Hits[0].Name != "MOZART" {
		t.Fatalf("prefix top hit = %q, want MOZART", res.Hits[0].Name)
	}

	// One-letter terms match exactly only.
	if res := s.Search("m", Options{K: -1}); find(res, "MOZART") != nil {
		t.Fatalf("one-letter prefix should not match MOZART")
	}

	// Empty and unmatchable queries return empty results, not errors.
	for _, q := range []string{"", "   ", "()&%", "zzzzz"} {
		if res := s.Search(q, Options{}); res.Total != 0 || len(res.Hits) != 0 {
			t.Fatalf("query %q: total = %d, want 0", q, res.Total)
		}
	}
}

func TestSearchPaging(t *testing.T) {
	u, st := musicWorld(t)
	s := New(st, u)
	full := s.Search("MOZART", Options{K: -1})
	if len(full.Hits) != full.Total {
		t.Fatalf("K=-1 returned %d of %d", len(full.Hits), full.Total)
	}
	var paged []Hit
	for off := 0; off < full.Total; off += 2 {
		page := s.Search("MOZART", Options{K: 2, Offset: off})
		if page.Total != full.Total {
			t.Fatalf("page total = %d, want %d", page.Total, full.Total)
		}
		paged = append(paged, page.Hits...)
	}
	if len(paged) != full.Total {
		t.Fatalf("pages sum to %d hits, want %d", len(paged), full.Total)
	}
	for i := range paged {
		if paged[i] != full.Hits[i] {
			t.Fatalf("page item %d = %+v, want %+v", i, paged[i], full.Hits[i])
		}
	}
	// Past-the-end offsets are empty, not a panic.
	if page := s.Search("MOZART", Options{K: 5, Offset: 1000}); len(page.Hits) != 0 {
		t.Fatalf("past-end page returned %d hits", len(page.Hits))
	}
}

func TestSearchRebuildKeyedToStoreVersion(t *testing.T) {
	u, st := musicWorld(t)
	s := New(st, u)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)

	builds := func() float64 { return reg.Value("lsdb_search_index_builds_total") }
	res := s.Search("MOZART", Options{})
	if builds() != 1 {
		t.Fatalf("builds after first query = %v, want 1", builds())
	}
	// Unchanged store: queries reuse the snapshot.
	s.Search("salzburg", Options{})
	if builds() != 1 {
		t.Fatalf("builds after second query = %v, want 1", builds())
	}
	// A no-op write (duplicate insert) keeps the version, so no rebuild.
	st.Insert(u.NewFact("MOZART", "in", "COMPOSER"))
	s.Search("MOZART", Options{})
	if builds() != 1 {
		t.Fatalf("builds after no-op write = %v, want 1", builds())
	}

	// A real write invalidates: the new entity is findable and the
	// result carries the new index version.
	st.Insert(u.NewFact("HAYDN", "in", "COMPOSER"))
	res2 := s.Search("haydn", Options{})
	if builds() != 2 {
		t.Fatalf("builds after write = %v, want 2", builds())
	}
	if find(res2, "HAYDN") == nil {
		t.Fatalf("HAYDN not found after insert: %+v", res2.Hits)
	}
	if res2.Version <= res.Version {
		t.Fatalf("index version did not advance: %d → %d", res.Version, res2.Version)
	}

	// Retraction refreshes too: the synonym signal disappears with the
	// ≈ fact that produced it.
	if !st.Delete(u.NewFact("WOLFGANG", "syn", "MOZART")) {
		t.Fatal("retract failed")
	}
	if hit := find(s.Search("MOZART", Options{K: -1}), "WOLFGANG"); hit != nil {
		t.Fatalf("WOLFGANG still matches after retraction: %+v", hit)
	}
	if reg.Value("lsdb_search_index_bytes") <= 0 || reg.Value("lsdb_search_index_tokens") <= 0 {
		t.Fatalf("index gauges not set: bytes=%v tokens=%v",
			reg.Value("lsdb_search_index_bytes"), reg.Value("lsdb_search_index_tokens"))
	}
}

// TestSearchConcurrentWithWrites drives queries and writes in parallel
// under -race: lock-free reads must never observe a partial snapshot
// and concurrent rebuilds must coalesce without racing.
func TestSearchConcurrentWithWrites(t *testing.T) {
	u, st := musicWorld(t)
	s := New(st, u)
	s.SetMetrics(obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Insert(u.NewFact(fmt.Sprintf("CW-%d-%d", w, i), "in", "COMPOSER"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res := s.Search("composer", Options{K: 5})
				for j := 1; j < len(res.Hits); j++ {
					a, b := res.Hits[j-1], res.Hits[j]
					if a.Score < b.Score || (a.Score == b.Score && a.Name > b.Name) {
						t.Errorf("unsorted page: %+v before %+v", a, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	res := s.Search("cw", Options{K: -1})
	got := 0
	for _, h := range res.Hits {
		if strings.HasPrefix(h.Name, "CW-") {
			got++
		}
	}
	if got != 200 {
		t.Fatalf("after writes, cw prefix matched %d CW- entities, want 200", got)
	}
}

func TestTokenize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"MOZART", []string{"mozart"}},
		{"FAVORITE-MUSIC", []string{"favorite", "music"}},
		{`"mozart salzburg"`, []string{"mozart", "salzburg"}},
		{"I-C0.0.0.0-0", []string{"i", "c0", "0", "0", "0", "0"}},
		{"Straße №42", []string{"straße", "42"}},
		{"a≈b", []string{"a", "b"}},
		{"\x00\xff�", nil},
	} {
		got := Tokenize(tc.in)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Overlong tokens truncate to MaxTokenRunes.
	long := strings.Repeat("ab", MaxTokenRunes)
	got := Tokenize(long)
	if len(got) != 1 || len([]rune(got[0])) != MaxTokenRunes {
		t.Fatalf("overlong token: %d tokens, len %d", len(got), len([]rune(got[0])))
	}
	// QueryTerms dedups and caps.
	terms := QueryTerms("a a b b a c")
	if fmt.Sprint(terms) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Fatalf("QueryTerms dedup = %v", terms)
	}
	many := make([]string, 0, 3*MaxQueryTerms)
	for i := 0; i < 3*MaxQueryTerms; i++ {
		many = append(many, fmt.Sprintf("t%d", i))
	}
	if got := QueryTerms(strings.Join(many, " ")); len(got) != MaxQueryTerms {
		t.Fatalf("QueryTerms cap = %d, want %d", len(got), MaxQueryTerms)
	}
}

// TestExactNameRepeatedToken pins the exact-name key: an entity name
// that repeats a token is keyed the way QueryTerms normalizes a query,
// so typing the whole name finds that entity with the bonus. The query
// "BORA-BORA" normalizes to the single term "bora", so BORA is an
// exact match too, and the two tie on score.
func TestExactNameRepeatedToken(t *testing.T) {
	u := fact.NewUniverse()
	st := store.New(u)
	st.Insert(u.NewFact("BORA-BORA", "in", "ISLAND"))
	st.Insert(u.NewFact("BORA", "in", "WIND"))
	for _, q := range []string{"BORA-BORA", "bora"} {
		res := New(st, u).Search(q, Options{K: -1})
		bb, b := find(res, "BORA-BORA"), find(res, "BORA")
		if bb == nil || !bb.ExactName {
			t.Fatalf("query %q: BORA-BORA = %+v, want an exact-name hit", q, bb)
		}
		if b == nil || !b.ExactName || b.Score != bb.Score {
			t.Fatalf("query %q: BORA = %+v, want an exact-name hit tied with %+v", q, b, bb)
		}
	}
}
