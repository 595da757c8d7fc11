package search

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
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
	Tokens     int // distinct vocabulary tokens of the last full build
	ArenaBytes int // delta+varint posting arenas
	Bytes      int // estimated footprint: the base, plus the overlay postings
	// Overlay counts the entities re-derived since the last full
	// build (those that stopped being entities included).
	Overlay int
}

// Searcher answers keyword queries over a store. It brings its index
// up to date lazily whenever the store version moves: a query after a
// write first patches the published snapshot with the documents of
// the entities the write touched (Store.ChangesSince), and rebuilds
// the whole index only when the overlay outgrows the fold rule or the
// store's history no longer reaches back far enough. Readers never
// block writers, and an unchanged store serves every query from one
// immutable snapshot.
type Searcher struct {
	st *store.Store
	u  *fact.Universe

	mu   sync.Mutex // serializes updates (single-flight)
	snap atomic.Pointer[snapshot]

	queries  *obs.Counter
	searchNs *obs.Histogram
	resultsH *obs.Histogram
	builds   *obs.Counter
	folds    *obs.Counter
	buildNs  *obs.Histogram
	idxBytes *obs.Gauge
	idxToks  *obs.Gauge
	idxEnts  *obs.Gauge
	overlay  *obs.Gauge
}

// New returns a Searcher over the store. The first query (or Refresh)
// builds the index.
func New(st *store.Store, u *fact.Universe) *Searcher {
	return &Searcher{st: st, u: u}
}

// SetMetrics registers the search metrics in reg. Call before sharing
// the Searcher; handles are captured once and recorded lock-free.
// lsdb_search_index_builds_total counts every published snapshot,
// lsdb_search_index_folds_total the full builds among them.
func (s *Searcher) SetMetrics(reg *obs.Registry) {
	s.queries = reg.Counter("lsdb_search_queries_total")
	s.searchNs = reg.Histogram("lsdb_search_ns")
	s.resultsH = reg.Histogram("lsdb_search_results")
	s.builds = reg.Counter("lsdb_search_index_builds_total")
	s.folds = reg.Counter("lsdb_search_index_folds_total")
	s.buildNs = reg.Histogram("lsdb_search_index_build_ns")
	s.idxBytes = reg.Gauge("lsdb_search_index_bytes")
	s.idxToks = reg.Gauge("lsdb_search_index_tokens")
	s.idxEnts = reg.Gauge("lsdb_search_index_entities")
	s.overlay = reg.Gauge("lsdb_search_index_overlay_entities")
}

// current returns the up-to-date snapshot, patching or rebuilding it
// under the mutex when the store version moved. Reads are one atomic
// load plus one version check; concurrent callers during churn
// coalesce on a single update.
func (s *Searcher) current() *snapshot {
	if sn := s.snap.Load(); sn != nil && sn.version == s.st.Version() {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap.Load()
	if old != nil && old.version == s.st.Version() {
		return old
	}
	start := time.Now()
	var sn *snapshot
	if old != nil {
		sn = old.advance(s.u, s.st)
	}
	if sn == nil {
		b := build(s.u, s.st)
		sn = newSnapshot(b, nil, b.version)
		s.folds.Inc()
	}
	s.snap.Store(sn)
	s.builds.Inc()
	s.buildNs.Observe(time.Since(start).Nanoseconds())
	st := sn.stats()
	s.idxBytes.Set(int64(st.Bytes))
	s.idxToks.Set(int64(st.Tokens))
	s.idxEnts.Set(int64(st.Entities))
	s.overlay.Set(int64(st.Overlay))
	return sn
}

func (sn *snapshot) stats() IndexStats {
	b := sn.base
	return IndexStats{
		Version:    sn.version,
		Entities:   sn.entities(),
		Tokens:     len(b.idx.toks),
		ArenaBytes: len(b.idx.arena) + len(sn.ovIdx.arena),
		Bytes:      b.bytes + sn.ovIdx.bytes(),
		Overlay:    len(sn.docs),
	}
}

// Refresh forces the index up to date and returns its stats.
func (s *Searcher) Refresh() IndexStats { return s.current().stats() }

// Search answers a keyword query with a ranked page of entry points.
// An empty or unmatchable query returns an empty result, not an error.
func (s *Searcher) Search(q string, o Options) *Result {
	start := time.Now()
	terms := QueryTerms(q)
	sn := s.current()
	k := o.K
	if k == 0 {
		k = DefaultK
	}
	res := &Result{Terms: terms, Version: sn.version}
	res.Total, res.Hits = sn.search(terms, max(o.Offset, 0), k)

	s.queries.Inc()
	s.searchNs.Observe(time.Since(start).Nanoseconds())
	s.resultsH.Observe(int64(res.Total))
	return res
}

// scratch is one query's scoring state: dense per-ordinal arrays over
// the snapshot's base and overlay ordinals, pooled across queries and
// cleared entry by entry after use, so a warm query allocates only its
// page of hits.
type scratch struct {
	best    []float64 // the current term's best contribution
	fld     []uint8   // and the field it came through
	termSc  []float64 // running TermScore
	taxSc   []float64 // running TaxScore
	matched []uint8   // terms matched so far
	touched []uint32  // ordinals the current term reached
	cands   []uint32  // ordinals any term reached, first-reached order
	run     []uint32  // one decoded posting run
	rank    []ranked
}

type ranked struct {
	score float64
	ord   uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) grow(n int) {
	if len(sc.best) < n {
		sc.best = make([]float64, n)
		sc.fld = make([]uint8, n)
		sc.termSc = make([]float64, n)
		sc.taxSc = make([]float64, n)
		sc.matched = make([]uint8, n)
	}
}

// score adds one term's postings in p to the current term's best
// contributions: exact token matches at full field weight, prefix
// matches at PrefixFactor. Ordinals are offset by off; those set in
// mask are skipped.
func (p *postings) score(term string, sc *scratch, mask []uint64, off uint32) {
	apply := func(tokIdx int, factor float64) {
		for f := 0; f < NumFields; f++ {
			pl := p.posts[f][tokIdx]
			if pl.n == 0 {
				continue
			}
			w := FieldWeight(f) * factor
			sc.run = store.DecodeUvarintRun(p.arena[pl.off:], pl.n, sc.run[:0])
			for _, ord := range sc.run {
				if masked(mask, ord) {
					continue
				}
				ord += off
				if b := sc.best[ord]; w > b || (w == b && uint8(f) < sc.fld[ord]) {
					if b == 0 {
						sc.touched = append(sc.touched, ord)
					}
					sc.best[ord], sc.fld[ord] = w, uint8(f)
				}
			}
		}
	}
	i := sort.SearchStrings(p.toks, term)
	if i < len(p.toks) && p.toks[i] == term {
		apply(i, 1.0)
		i++
	}
	if len(term) >= MinPrefixLen {
		for ; i < len(p.toks) && strings.HasPrefix(p.toks[i], term); i++ {
			apply(i, PrefixFactor)
		}
	}
}

// search scores every entity matching at least one term and returns
// their number and the page [off, off+k) of the ranking (k < 0: every
// hit from off on): score descending, name ascending on ties. The
// per-term accumulation keeps, for each entity, the single best field
// contribution per query term (max over fields and tokens, earlier
// field on weight ties), then sums term contributions in query order —
// an arithmetic the brute-force oracle reproduces bit-for-bit. Base
// and overlay are scored by the same code; base entities the overlay
// replaces are masked out.
func (sn *snapshot) search(terms []string, off, k int) (int, []Hit) {
	if len(terms) == 0 {
		return 0, nil
	}
	b := sn.base
	nb := uint32(len(b.ids))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.grow(int(nb) + len(sn.ov))
	for _, term := range terms {
		b.idx.score(term, sc, sn.mask, 0)
		sn.ovIdx.score(term, sc, nil, nb)
		for _, ord := range sc.touched {
			if sc.matched[ord] == 0 {
				sc.cands = append(sc.cands, ord)
			}
			sc.matched[ord]++
			if TaxonomyField(int(sc.fld[ord])) {
				sc.taxSc[ord] += sc.best[ord]
			} else {
				sc.termSc[ord] += sc.best[ord]
			}
			sc.best[ord], sc.fld[ord] = 0, 0
		}
		sc.touched = sc.touched[:0]
	}
	defer func() {
		for _, ord := range sc.cands {
			sc.termSc[ord], sc.taxSc[ord], sc.matched[ord] = 0, 0, 0
		}
		sc.cands = sc.cands[:0]
	}()

	// Exact-name matches: at most a few ordinals.
	key := strings.Join(terms, " ")
	var exact []uint32
	for _, o := range b.nameOf[key] {
		if !masked(sn.mask, o) {
			exact = append(exact, o)
		}
	}
	for _, i := range sn.ovNameOf[key] {
		exact = append(exact, nb+i)
	}
	name := func(ord uint32) string {
		if ord < nb {
			return b.names[ord]
		}
		return sn.ov[ord-nb].name
	}
	degree := func(ord uint32) int32 {
		if ord < nb {
			return b.degrees[ord]
		}
		return sn.ov[ord-nb].degree
	}
	worse := func(x, y ranked) bool { // x ranks after y
		if x.score != y.score {
			return x.score < y.score
		}
		return name(x.ord) > name(y.ord)
	}

	// Select the page: a bounded heap of the best off+k, worst on top,
	// unless every hit is wanted.
	total := len(sc.cands)
	m := total
	if k >= 0 && off+k < total {
		m = off + k
	}
	heap := sc.rank[:0]
	for _, ord := range sc.cands {
		r := ranked{sc.termSc[ord] + sc.taxSc[ord] + HubScore(int(degree(ord))), ord}
		if slices.Contains(exact, ord) {
			r.score += ExactNameBonus
		}
		if len(heap) < m {
			heap = append(heap, r)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		} else if m > 0 && worse(heap[0], r) {
			heap[0] = r
			for i := 0; ; {
				w, l, rt := i, 2*i+1, 2*i+2
				if l < len(heap) && worse(heap[l], heap[w]) {
					w = l
				}
				if rt < len(heap) && worse(heap[rt], heap[w]) {
					w = rt
				}
				if w == i {
					break
				}
				heap[i], heap[w] = heap[w], heap[i]
				i = w
			}
		}
	}
	sc.rank = heap
	if off >= len(heap) {
		return total, []Hit{}
	}
	slices.SortFunc(heap, func(x, y ranked) int {
		if worse(y, x) {
			return -1
		}
		return 1
	})
	hits := make([]Hit, 0, len(heap)-off)
	for _, r := range heap[off:] {
		h := Hit{
			Name:      name(r.ord),
			Score:     r.score,
			TermScore: sc.termSc[r.ord],
			TaxScore:  sc.taxSc[r.ord],
			Matched:   int(sc.matched[r.ord]),
			Degree:    int(degree(r.ord)),
			ExactName: slices.Contains(exact, r.ord),
		}
		if r.ord < nb {
			h.ID = b.ids[r.ord]
		} else {
			h.ID = sn.ov[r.ord-nb].id
		}
		h.HubScore = HubScore(h.Degree)
		hits = append(hits, h)
	}
	return total, hits
}
