package check

import (
	"fmt"
	"strings"

	lsdb "repro"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/sym"
)

// searchVsScan is the keyword-search differential oracle: it replays
// the world op by op onto a live database and, at sampled steps and
// after every retraction, compares the inverted-index answer
// (Database.Search, which brings its snapshot up to date on version
// churn) against a brute-force scan over the stored facts. The scan
// shares only the *scoring spec* with the index — the exported
// constants and pure helpers in internal/search — and none of its
// machinery: token sets come from per-entity maps instead of posting
// lists, synonym classes from a fresh BFS per entity over its own
// adjacency maps, and the ranking from an insertion sort instead of
// page selection. Agreement is
// required on the full ranking with exact float equality, which holds
// because both sides sum per-term best-field contributions in
// query-term order.
func searchVsScan(w *gen.World, _ Options) error {
	db := lsdb.New()
	sr := db.Searcher()

	// Probe queries derived from an op's names: exact entity names, a
	// multi-term mix, a lowercase relationship, a short prefix, and junk
	// that must match nothing. Generated names are ASCII, so prefixing
	// by bytes is safe.
	probesFor := func(op gen.Op) []string {
		qs := []string{op.S, op.T, op.S + " " + op.T, strings.ToLower(op.R)}
		if toks := search.Tokenize(op.S); len(toks) > 0 && len(toks[0]) > search.MinPrefixLen {
			qs = append(qs, toks[0][:search.MinPrefixLen+1])
		}
		return append(qs, "zzzz-no-such-entity", "")
	}

	compareAll := func(step int, op gen.Op) error {
		for _, q := range probesFor(op) {
			got := db.Search(q, lsdb.SearchOptions{K: -1})
			want := searchScan(db, q)
			if err := diffRankings(q, step, got, want); err != nil {
				return err
			}
			if got.Version != db.Store().Version() {
				return fmt.Errorf("step %d query %q: answered from version %d, store at %d",
					step, q, got.Version, db.Store().Version())
			}
		}
		return nil
	}

	step := len(w.Ops)/8 + 1
	var lastFact gen.Op
	for i, op := range w.Ops {
		gen.ApplyOp(db, op)
		if op.Kind == gen.OpAssert || op.Kind == gen.OpRetract {
			lastFact = op
		}
		// Probe at sampled steps and immediately after every retraction:
		// the retract path is where a stale index snapshot would keep
		// answering with entities that no longer exist.
		if (i%step != 0 && op.Kind != gen.OpRetract) || lastFact.S == "" {
			continue
		}
		if err := compareAll(i, lastFact); err != nil {
			return err
		}
	}
	if lastFact.S == "" {
		return nil // no facts in this world
	}
	if err := compareAll(len(w.Ops), lastFact); err != nil {
		return err
	}

	// Forced post-retraction refresh: delete one stored fact the index
	// has certainly served, then require the next query to rebuild and
	// agree with a fresh scan again.
	before := sr.Refresh()
	facts := db.Store().Facts()
	if len(facts) == 0 {
		return nil
	}
	u := db.Universe()
	f := facts[len(facts)-1]
	probe := gen.Op{S: u.Name(f.S), R: u.Name(f.R), T: u.Name(f.T)}
	if !db.Retract(probe.S, probe.R, probe.T) {
		return fmt.Errorf("could not retract stored fact %s", u.FormatFact(f))
	}
	if err := compareAll(len(w.Ops)+1, probe); err != nil {
		return err
	}
	after := sr.Refresh()
	if after.Version == before.Version {
		return fmt.Errorf("retraction did not move the index version (still %d)", after.Version)
	}
	return nil
}

// searchIncremental is the incremental-index oracle: it replays the
// world op by op onto a live database and, after every assert and
// retract, compares the live Searcher — which patches its snapshot
// with the documents of the entities each write touched — against a
// Searcher freshly built over the same store at the same version:
// equal versions, equal entity counts, and equal full rankings for
// probe queries drawn from the op's names. searchVsScan checks what
// the index answers; this checks that patching answers what building
// does. It also returns the live database, so tests can read what its
// Searcher did.
//
// The database starts with padFacts facts over entities of their own,
// so the base is big enough for the fold rule to let an overlay grow
// over several writes before it folds: a base of only the world's
// dozen entities would fold on every write and never exercise the
// overlay. Each step depends only on the ops before it, so any
// subsequence of a failing program is a valid program and gen.Shrink
// minimizes it.
func searchIncremental(w *gen.World) (*lsdb.Database, error) {
	db := lsdb.New()
	for i := 0; i < padFacts; i++ {
		db.MustAssert(fmt.Sprintf("PAD-%03d", 2*i), "PAD-OF", fmt.Sprintf("PAD-%03d", 2*i+1))
	}
	live := db.Searcher()
	live.Refresh()
	for i, op := range w.Ops {
		gen.ApplyOp(db, op)
		if op.Kind != gen.OpAssert && op.Kind != gen.OpRetract {
			continue
		}
		fresh := search.New(db.Store(), db.Universe())
		ls, fs := live.Refresh(), fresh.Refresh()
		if ls.Version != fs.Version || ls.Entities != fs.Entities {
			return db, fmt.Errorf("after op %d (%s): live index at version %d with %d entities, fresh build at %d with %d",
				i, op, ls.Version, ls.Entities, fs.Version, fs.Entities)
		}
		qs := []string{op.S, op.T, op.S + " " + op.T, strings.ToLower(op.R)}
		if toks := search.Tokenize(op.T); len(toks) > 0 && len(toks[0]) > search.MinPrefixLen {
			qs = append(qs, toks[0][:search.MinPrefixLen])
		}
		for _, q := range qs {
			got := live.Search(q, search.Options{K: -1})
			want := fresh.Search(q, search.Options{K: -1})
			if got.Version != want.Version || got.Total != want.Total || len(got.Hits) != len(want.Hits) {
				return db, fmt.Errorf("after op %d (%s), query %q: live found %d hits at version %d, fresh build %d at %d",
					i, op, q, got.Total, got.Version, want.Total, want.Version)
			}
			for j := range want.Hits {
				if got.Hits[j] != want.Hits[j] {
					return db, fmt.Errorf("after op %d (%s), query %q rank %d: live %+v, fresh build %+v",
						i, op, q, j, got.Hits[j], want.Hits[j])
				}
			}
		}
	}
	return db, nil
}

// padFacts is the size of SearchIncremental's padding: 2·padFacts+1
// entities, so the fold rule allows an overlay of about padFacts/8.
const padFacts = 64

// diffRankings compares two full rankings field by field.
func diffRankings(q string, step int, got *lsdb.SearchResult, want []search.Hit) error {
	if got.Total != len(want) || len(got.Hits) != len(want) {
		return fmt.Errorf("step %d query %q: index found %d hits (total %d), scan found %d",
			step, q, len(got.Hits), got.Total, len(want))
	}
	for i := range want {
		g, w := got.Hits[i], want[i]
		if g != w {
			return fmt.Errorf("step %d query %q rank %d: index %+v, scan %+v", step, q, i, g, w)
		}
	}
	return nil
}

// searchScan is the brute-force reference: score every entity of the
// stored fact set against the query by direct scan, mirroring the
// indexed-entity spec at the top of internal/search/index.go.
func searchScan(db *lsdb.Database, q string) []search.Hit {
	terms := search.QueryTerms(q)
	if len(terms) == 0 {
		return nil
	}
	u := db.Universe()
	facts := db.Store().Facts()

	// Entities and degrees.
	deg := make(map[sym.ID]int)
	for _, f := range facts {
		deg[f.S]++
		deg[f.T]++
		if _, ok := deg[f.R]; !ok {
			deg[f.R] = 0
		}
	}
	entToks := make(map[sym.ID][]string, len(deg))
	for e := range deg {
		entToks[e] = search.Tokenize(u.Name(e))
	}

	// Adjacency: synonym edges (≈ plus two-way ≺), the class maps, and
	// the neighborhood token sets, each from one pass over the facts.
	synAdj := make(map[sym.ID][]sym.ID)
	genOut := make(map[sym.ID][]sym.ID)
	memOut := make(map[sym.ID][]sym.ID)
	genSet := make(map[[2]sym.ID]bool)
	nbrToks := make(map[sym.ID]map[string]bool)
	addNbr := func(to, from sym.ID) {
		if u.Special(to) || u.Special(from) {
			return
		}
		m := nbrToks[to]
		if m == nil {
			m = make(map[string]bool)
			nbrToks[to] = m
		}
		for _, tok := range entToks[from] {
			m[tok] = true
		}
	}
	for _, f := range facts {
		switch f.R {
		case u.Gen:
			genOut[f.S] = append(genOut[f.S], f.T)
			genSet[[2]sym.ID{f.S, f.T}] = true
		case u.Member:
			memOut[f.S] = append(memOut[f.S], f.T)
		case u.Syn:
			synAdj[f.S] = append(synAdj[f.S], f.T)
			synAdj[f.T] = append(synAdj[f.T], f.S)
		}
		addNbr(f.S, f.R)
		addNbr(f.S, f.T)
		addNbr(f.T, f.S)
		addNbr(f.T, f.R)
	}
	for p := range genSet {
		if genSet[[2]sym.ID{p[1], p[0]}] {
			synAdj[p[0]] = append(synAdj[p[0]], p[1])
		}
	}

	// synClass returns every other member of e's synonym component, by
	// breadth-first search over the symmetric adjacency.
	synClass := func(e sym.ID) []sym.ID {
		seen := map[sym.ID]bool{e: true}
		queue := []sym.ID{e}
		var others []sym.ID
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range synAdj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
					others = append(others, nb)
				}
			}
		}
		return others
	}

	// fieldTokens builds the per-field token sets for one entity.
	fieldTokens := func(e sym.ID) [search.NumFields]map[string]bool {
		var ft [search.NumFields]map[string]bool
		for f := range ft {
			ft[f] = make(map[string]bool)
		}
		for _, tok := range entToks[e] {
			ft[search.FieldName][tok] = true
		}
		for _, m := range synClass(e) {
			for _, tok := range entToks[m] {
				ft[search.FieldSyn][tok] = true
			}
		}
		// Taxonomy walk: direct ∈/≺ targets, then two more ≺ steps,
		// skipping special entities, the entity itself, and classes
		// already reached at a shallower depth.
		levels := make([]map[sym.ID]bool, 3)
		levels[0] = make(map[sym.ID]bool)
		for _, c := range append(append([]sym.ID{}, memOut[e]...), genOut[e]...) {
			if c != e && !u.Special(c) {
				levels[0][c] = true
			}
		}
		for depth := 1; depth < 3; depth++ {
			levels[depth] = make(map[sym.ID]bool)
			for c := range levels[depth-1] {
				for _, up := range genOut[c] {
					if up == e || u.Special(up) {
						continue
					}
					shallower := false
					for d := 0; d < depth; d++ {
						if levels[d][up] {
							shallower = true
						}
					}
					if !shallower {
						levels[depth][up] = true
					}
				}
			}
		}
		for depth, level := range levels {
			for c := range level {
				for _, tok := range entToks[c] {
					ft[search.FieldClass1+depth][tok] = true
				}
			}
		}
		for tok := range nbrToks[e] {
			ft[search.FieldNbr][tok] = true
		}
		return ft
	}

	joined := strings.Join(terms, " ")
	var hits []search.Hit
	for e, degree := range deg {
		ft := fieldTokens(e)
		h := search.Hit{ID: e, Name: u.Name(e), Degree: degree}
		for _, term := range terms {
			best, bestField := 0.0, 0
			for f := 0; f < search.NumFields; f++ {
				w := search.FieldWeight(f)
				for tok := range ft[f] {
					if v := search.TermMatch(term, tok, w); v > best {
						best, bestField = v, f
					}
				}
			}
			if best == 0 {
				continue
			}
			h.Matched++
			if search.TaxonomyField(bestField) {
				h.TaxScore += best
			} else {
				h.TermScore += best
			}
		}
		if h.Matched == 0 {
			continue
		}
		h.HubScore = search.HubScore(h.Degree)
		h.ExactName = strings.Join(search.QueryTerms(u.Name(e)), " ") == joined
		h.Score = h.TermScore + h.TaxScore + h.HubScore
		if h.ExactName {
			h.Score += search.ExactNameBonus
		}
		hits = append(hits, h)
	}
	sortHits(hits)
	return hits
}

// sortHits orders a ranking exactly as the index does: score
// descending, name ascending (names are unique, so the order is total).
// Deliberately not sort.Slice — the oracle shares no machinery.
func sortHits(hits []search.Hit) {
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hitLess(hits[j], hits[j-1]); j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
}

func hitLess(a, b search.Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Name < b.Name
}
