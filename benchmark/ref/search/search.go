package search

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/obs"
	"repro/benchmark/ref/store"
	"repro/benchmark/ref/sym"
)

// Index fields. Every token an entity is findable by belongs to one
// field; the field decides the weight of a match. The numeric order is
// also the tie-break preference when two fields contribute the same
// weight: earlier fields win, so score breakdowns are deterministic.
const (
	FieldName   = iota // tokens of the entity's own name
	FieldSyn           // tokens of names in its synonym (≈) class
	FieldClass1        // direct classes: targets of stored ∈ and ≺
	FieldClass2        // classes one ≺ step above FieldClass1
	FieldClass3        // classes two ≺ steps above FieldClass1
	FieldNbr           // tokens of co-occurring components of its facts
	NumFields
)

// Ranking constants. The absolute values are unimportant; the order
// is: the entity's own name outranks its synonyms, synonyms outrank
// taxonomy, direct classes outrank distant ones, and neighborhood
// co-occurrence is the weakest textual signal. The brute-force oracle
// in internal/check recomputes scores from these same constants over a
// direct store scan, so every number here is pinned by a differential
// test, not just by unit expectations.
const (
	// ExactNameBonus is added when the whole normalized query equals
	// the whole normalized entity name — a user typing an exact name
	// must see that entity first.
	ExactNameBonus = 2.0
	// PrefixFactor discounts a prefix match (query term "moz" against
	// token "mozart") relative to an exact token match.
	PrefixFactor = 0.5
	// MinPrefixLen is the shortest query term that can prefix-match;
	// shorter terms match only exactly, or one-letter queries would
	// touch most of the vocabulary.
	MinPrefixLen = 2
	// HubWeight scales the degree signal: HubWeight·log2(1+degree).
	// Logarithmic so hubs are preferred among textual ties without a
	// high-degree entity outranking a better textual match.
	HubWeight = 0.1
)

// FieldWeight returns the score contribution of an exact term match in
// field f.
func FieldWeight(f int) float64 {
	switch f {
	case FieldName:
		return 1.0
	case FieldSyn:
		return 0.6
	case FieldClass1:
		return 0.4
	case FieldClass2:
		return 0.2
	case FieldClass3:
		return 0.1
	case FieldNbr:
		return 0.25
	}
	return 0
}

// TaxonomyField reports whether f is one of the taxonomy-proximity
// fields (the class walk), whose contributions are reported separately
// in Hit.TaxScore.
func TaxonomyField(f int) bool { return f >= FieldClass1 && f <= FieldClass3 }

// HubScore is the degree/centrality component of an entity's score.
func HubScore(degree int) float64 { return HubWeight * math.Log2(1+float64(degree)) }

// TermMatch scores one query term against one indexed token in a field
// of weight w: full weight on an exact match, PrefixFactor·w on a
// prefix match of length ≥ MinPrefixLen, zero otherwise. Shared by the
// index path and the oracle's scan path.
func TermMatch(term, tok string, w float64) float64 {
	if term == tok {
		return w
	}
	if len(term) >= MinPrefixLen && len(term) < len(tok) && strings.HasPrefix(tok, term) {
		return PrefixFactor * w
	}
	return 0
}

// DefaultK is the page size when Options.K is zero.
const DefaultK = 10

// Options controls paging. K is the page size (0 → DefaultK, negative
// → every hit); Offset skips ranked hits before the page.
type Options struct {
	K      int
	Offset int
}

// Hit is one ranked entry point.
type Hit struct {
	ID   sym.ID
	Name string
	// Score = TermScore + TaxScore + HubScore (+ ExactNameBonus).
	Score float64
	// TermScore sums, over the query terms, the best non-taxonomy
	// field contribution (name, synonym, neighborhood).
	TermScore float64
	// TaxScore sums the terms whose best match came through the class
	// walk — the taxonomy-proximity signal.
	TaxScore float64
	// HubScore is the degree centrality component.
	HubScore float64
	// ExactName marks a whole-query exact name match.
	ExactName bool
	// Matched counts how many query terms matched this entity.
	Matched int
	// Degree is the entity's stored-fact degree (S or T position).
	Degree int
}

// Result is a ranked answer page.
type Result struct {
	// Terms is the normalized, deduplicated query (QueryTerms).
	Terms []string
	// Total is the number of matching entities before paging.
	Total int
	// Hits is the requested page of the ranking.
	Hits []Hit
	// Version is the store version the answering index was built from.
	Version uint64
}

// IndexStats describes the current index snapshot.
type IndexStats struct {
	Version    uint64
	Entities   int
	Tokens     int // distinct vocabulary tokens
	ArenaBytes int // delta+varint posting arena
	Bytes      int // estimated total index footprint
}

// plist locates one posting run inside the snapshot arena.
type plist struct {
	off uint32
	n   uint32
}

// snapshot is one immutable index build: entity ordinals sorted by
// name, a sorted vocabulary, and per-(token, field) posting runs of
// entity ordinals, delta+varint encoded into one shared arena with the
// sealed store's run codec. Published whole via atomic.Pointer.
type snapshot struct {
	version uint64

	ids     []sym.ID
	names   []string
	degrees []int32
	nameOf  map[string][]uint32 // normalized whole name → ordinals

	toks  []string
	posts [NumFields][]plist
	arena []byte

	bytes int
}

// Searcher answers keyword queries over a store, rebuilding its index
// lazily whenever the store version moves — the same invalidation
// discipline as the materialized closure: any write discards the
// snapshot wholesale, readers never block writers, and an unchanged
// store serves every query from one immutable build.
type Searcher struct {
	st *store.Store
	u  *fact.Universe

	mu   sync.Mutex // serializes rebuilds (single-flight)
	snap atomic.Pointer[snapshot]

	queries  *obs.Counter
	searchNs *obs.Histogram
	resultsH *obs.Histogram
	builds   *obs.Counter
	buildNs  *obs.Histogram
	idxBytes *obs.Gauge
	idxToks  *obs.Gauge
	idxEnts  *obs.Gauge
}

// New returns a Searcher over the store. The first query (or Refresh)
// builds the index.
func New(st *store.Store, u *fact.Universe) *Searcher {
	return &Searcher{st: st, u: u}
}

// SetMetrics registers the search metrics in reg. Call before sharing
// the Searcher; handles are captured once and recorded lock-free.
func (s *Searcher) SetMetrics(reg *obs.Registry) {
	s.queries = reg.Counter("lsdb_search_queries_total")
	s.searchNs = reg.Histogram("lsdb_search_ns")
	s.resultsH = reg.Histogram("lsdb_search_results")
	s.builds = reg.Counter("lsdb_search_index_builds_total")
	s.buildNs = reg.Histogram("lsdb_search_index_build_ns")
	s.idxBytes = reg.Gauge("lsdb_search_index_bytes")
	s.idxToks = reg.Gauge("lsdb_search_index_tokens")
	s.idxEnts = reg.Gauge("lsdb_search_index_entities")
}

// current returns the up-to-date snapshot, rebuilding under the mutex
// when the store version moved. Reads are one atomic load plus one
// version check; concurrent callers during churn coalesce on a single
// rebuild.
func (s *Searcher) current() *snapshot {
	if sn := s.snap.Load(); sn != nil && sn.version == s.st.Version() {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.snap.Load(); sn != nil && sn.version == s.st.Version() {
		return sn
	}
	start := time.Now()
	sn := build(s.u, s.st)
	s.snap.Store(sn)
	s.builds.Inc()
	s.buildNs.Observe(time.Since(start).Nanoseconds())
	s.idxBytes.Set(int64(sn.bytes))
	s.idxToks.Set(int64(len(sn.toks)))
	s.idxEnts.Set(int64(len(sn.ids)))
	return sn
}

// Refresh forces the index up to date and returns its stats.
func (s *Searcher) Refresh() IndexStats {
	sn := s.current()
	return IndexStats{
		Version:    sn.version,
		Entities:   len(sn.ids),
		Tokens:     len(sn.toks),
		ArenaBytes: len(sn.arena),
		Bytes:      sn.bytes,
	}
}

// Search answers a keyword query with a ranked page of entry points.
// An empty or unmatchable query returns an empty result, not an error.
func (s *Searcher) Search(q string, o Options) *Result {
	start := time.Now()
	terms := QueryTerms(q)
	sn := s.current()
	hits := sn.search(terms)
	res := &Result{Terms: terms, Total: len(hits), Version: sn.version}

	k := o.K
	if k == 0 {
		k = DefaultK
	}
	off := o.Offset
	if off < 0 {
		off = 0
	}
	if off > len(hits) {
		off = len(hits)
	}
	end := len(hits)
	if k > 0 && off+k < end {
		end = off + k
	}
	res.Hits = hits[off:end]

	s.queries.Inc()
	s.searchNs.Observe(time.Since(start).Nanoseconds())
	s.resultsH.Observe(int64(res.Total))
	return res
}

// search scores every entity matching at least one term and returns
// the full ranking: score descending, name ascending on ties. The
// per-term accumulation keeps, for each entity, the single best field
// contribution per query term (max over fields and tokens, earlier
// field on weight ties), then sums term contributions in query order —
// an arithmetic the brute-force oracle reproduces bit-for-bit.
func (sn *snapshot) search(terms []string) []Hit {
	if len(terms) == 0 {
		return nil
	}
	type cand struct {
		best []float64
		fld  []uint8
	}
	cands := make(map[uint32]*cand)
	for ti, term := range terms {
		apply := func(tokIdx int, factor float64) {
			for f := 0; f < NumFields; f++ {
				pl := sn.posts[f][tokIdx]
				if pl.n == 0 {
					continue
				}
				w := FieldWeight(f) * factor
				store.EachUvarintRun(sn.arena[pl.off:], pl.n, func(ord uint32) bool {
					c := cands[ord]
					if c == nil {
						c = &cand{best: make([]float64, len(terms)), fld: make([]uint8, len(terms))}
						cands[ord] = c
					}
					if w > c.best[ti] || (w == c.best[ti] && uint8(f) < c.fld[ti]) {
						c.best[ti], c.fld[ti] = w, uint8(f)
					}
					return true
				})
			}
		}
		i := sort.SearchStrings(sn.toks, term)
		if i < len(sn.toks) && sn.toks[i] == term {
			apply(i, 1.0)
			i++
		}
		if len(term) >= MinPrefixLen {
			for ; i < len(sn.toks) && strings.HasPrefix(sn.toks[i], term); i++ {
				apply(i, PrefixFactor)
			}
		}
	}

	exact := make(map[uint32]bool)
	for _, ord := range sn.nameOf[strings.Join(terms, " ")] {
		exact[ord] = true
	}

	hits := make([]Hit, 0, len(cands))
	for ord, c := range cands {
		h := Hit{
			ID:     sn.ids[ord],
			Name:   sn.names[ord],
			Degree: int(sn.degrees[ord]),
		}
		for ti := range terms {
			v := c.best[ti]
			if v == 0 {
				continue
			}
			h.Matched++
			if TaxonomyField(int(c.fld[ti])) {
				h.TaxScore += v
			} else {
				h.TermScore += v
			}
		}
		if h.Matched == 0 {
			continue
		}
		h.HubScore = HubScore(h.Degree)
		h.ExactName = exact[ord]
		h.Score = h.TermScore + h.TaxScore + h.HubScore
		if h.ExactName {
			h.Score += ExactNameBonus
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Name < hits[j].Name
	})
	return hits
}
