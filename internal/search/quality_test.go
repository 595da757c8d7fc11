package search_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/sym"
)

// rankingQuality aggregates retrieval-quality rates over generated
// worlds: hit1 is the fraction of exact-name queries whose entity
// ranked first, synHit5 the fraction of synonym-name queries whose
// partner made the top 5, mrr the mean reciprocal rank of the
// exact-name targets within the top 10.
type rankingQuality struct {
	hit1, synHit5, mrr     float64
	exactProbes, synProbes int
}

// measureRankingQuality scores the ranker on medium generated worlds.
// Probes are entities the generator actually asserted; the index has
// never seen the worlds before, so this is held-out retrieval, not
// training-set recall.
func measureRankingQuality(seeds []int64) rankingQuality {
	var q rankingQuality
	var hit1, mrr float64
	var syn5 int
	for _, seed := range seeds {
		w := gen.Generate(seed, gen.Medium())
		db := w.Build()
		u := db.Universe()
		facts := db.Store().Facts()

		// Exact-name probes: a sample of stored entities, queried by
		// their own (lowercased) name.
		ids := make(map[sym.ID]bool)
		for _, f := range facts {
			for _, e := range []sym.ID{f.S, f.T} {
				if !u.Special(e) {
					ids[e] = true
				}
			}
		}
		names := make([]string, 0, len(ids))
		for e := range ids {
			names = append(names, u.Name(e))
		}
		sort.Strings(names)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		if len(names) > 60 {
			names = names[:60]
		}
		for _, name := range names {
			res := db.Search(strings.ToLower(name), lsdb.SearchOptions{K: 10})
			q.exactProbes++
			for rank, h := range res.Hits {
				if h.Name == name {
					if rank == 0 {
						hit1++
					}
					mrr += 1 / float64(rank+1)
					break
				}
			}
		}

		// Synonym probes: for every stored ≈ pair, querying one side's
		// name must surface the other side in the top 5 — the paper's
		// "browse by any name you know" promise.
		for _, f := range facts {
			if f.R != u.Syn || f.S == f.T {
				continue
			}
			for _, pair := range [][2]sym.ID{{f.S, f.T}, {f.T, f.S}} {
				res := db.Search(strings.ToLower(u.Name(pair[0])), lsdb.SearchOptions{K: 5})
				q.synProbes++
				target := u.Name(pair[1])
				for _, h := range res.Hits {
					if h.Name == target {
						syn5++
						break
					}
				}
			}
		}
	}
	if q.exactProbes > 0 {
		q.hit1 = hit1 / float64(q.exactProbes)
		q.mrr = mrr / float64(q.exactProbes)
	}
	if q.synProbes > 0 {
		q.synHit5 = float64(syn5) / float64(q.synProbes)
	}
	return q
}

// TestE12RankingQuality is the retrieval acceptance gate: on held-out
// generated worlds, exact-name queries must put the named entity first
// at least 95% of the time, and synonym-name queries must surface the
// partner in the top 5 at least 80% of the time.
func TestE12RankingQuality(t *testing.T) {
	q := measureRankingQuality([]int64{3, 5, 9})
	if q.exactProbes == 0 || q.synProbes == 0 {
		t.Fatalf("degenerate probe sets: %+v", q)
	}
	if q.hit1 < 0.95 {
		t.Errorf("exact-name hit@1 = %.3f (%d probes), want >= 0.95", q.hit1, q.exactProbes)
	}
	if q.synHit5 < 0.80 {
		t.Errorf("synonym hit@5 = %.3f (%d probes), want >= 0.80", q.synHit5, q.synProbes)
	}
	if q.mrr < q.hit1 {
		t.Errorf("MRR@10 %.3f below hit@1 %.3f: reciprocal ranks are broken", q.mrr, q.hit1)
	}
}

// TestE12SearchScaleSmoke: a full index build over a sealed 20k-fact
// Zipf store reports a non-empty index, and both the build and an
// exact-name query take measurable time.
func TestE12SearchScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale world in -short mode")
	}
	cfg := gen.ScaleConfig{Facts: 20_000}.Normalized()
	u := fact.NewUniverse()
	st := store.SealedFromFacts(u, gen.ScaleFacts(u, cfg))
	t0 := time.Now()
	sr := search.New(st, u)
	s := sr.Refresh()
	build := time.Since(t0)
	if s.Entities == 0 || s.Tokens == 0 || s.Bytes == 0 {
		t.Fatalf("empty index stats: %+v", s)
	}
	t0 = time.Now()
	for i := 0; i < 100; i++ {
		sr.Search(fmt.Sprintf("N%d", i), search.Options{})
	}
	if exact := time.Since(t0); build <= 0 || exact <= 0 {
		t.Fatalf("non-positive timings: build %v, exact queries %v", build, exact)
	}
}
