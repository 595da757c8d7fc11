package check

// Layered-store oracles. A store.Store reads as one set the three
// layers it keeps — a compressed posting-list base shared between
// clones, a hash-indexed delta, a tombstone set — and Seal folds them
// into a new base past a threshold (store/store.go). These oracles
// demand that the layering is invisible. LayeredModel replays a world
// as interleaved Insert/Delete/resurrect/Seal/Clone steps and checks
// every read method against a plain set after each; the
// sealed-vs-mutable pair compares the two extreme shapes (all delta,
// all base) of the same fact set over every template class.

import (
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/sym"
)

// sealedProbeCap bounds the anchor sample per world so the oracle
// stays linear in store size (the full probe grid is cubic).
const sealedProbeCap = 100

// compareStores runs the full read-interface comparison between a
// mutable store and its sealed counterpart over every template class.
// Both stores must share one universe. name labels failures.
func compareStores(u *fact.Universe, mut, sealed *store.Store, name string) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "sealed-vs-mutable", Detail: name + ": " + fmt.Sprintf(format, args...)}
	}
	if mut.Len() != sealed.Len() {
		return fail("Len %d != %d", mut.Len(), sealed.Len())
	}

	// Anchors: a deterministic sample of stored entities and all
	// relations, plus entities that exist only in the universe (absent
	// from the store) and the wildcard.
	ents := mut.Entities()
	step := 1
	if len(ents) > sealedProbeCap {
		step = len(ents) / sealedProbeCap
	}
	anchors := []sym.ID{sym.None, u.Intern("SEALED-ORACLE-ABSENT")}
	for i := 0; i < len(ents); i += step {
		anchors = append(anchors, ents[i])
	}
	rels := []sym.ID{sym.None, u.Intern("SEALED-ORACLE-NOREL")}
	for _, rs := range mut.Relationships() {
		rels = append(rels, rs.Rel)
	}

	// Every template class: (S|·, R|·, T|·) over the anchor grid.
	for _, s := range anchors {
		for _, r := range rels {
			for _, t := range anchors {
				wantAll := mut.MatchAll(s, r, t)
				gotAll := sealed.MatchAll(s, r, t)
				if len(wantAll) != len(gotAll) {
					return fail("MatchAll(%s,%s,%s): %d facts mutable, %d sealed",
						u.Name(s), u.Name(r), u.Name(t), len(wantAll), len(gotAll))
				}
				seen := make(map[fact.Fact]bool, len(wantAll))
				for _, f := range wantAll {
					seen[f] = true
				}
				for _, f := range gotAll {
					if !seen[f] {
						return fail("MatchAll(%s,%s,%s): sealed has extra %v",
							u.Name(s), u.Name(r), u.Name(t), f)
					}
				}
				if mc, sc := mut.Count(s, r, t), sealed.Count(s, r, t); mc != sc {
					return fail("Count(%s,%s,%s): %d != %d", u.Name(s), u.Name(r), u.Name(t), mc, sc)
				}
				if me, se := mut.EstimateCount(s, r, t), sealed.EstimateCount(s, r, t); me != se {
					return fail("EstimateCount(%s,%s,%s): %d != %d", u.Name(s), u.Name(r), u.Name(t), me, se)
				}
			}
		}
	}

	// Membership agreement for every stored fact plus perturbations.
	for i, f := range mut.Facts() {
		if !sealed.Has(f) {
			return fail("sealed missing stored fact %v", f)
		}
		if i%7 == 0 {
			g := fact.Fact{S: f.T, R: f.R, T: f.S} // often absent
			if mut.Has(g) != sealed.Has(g) {
				return fail("Has(%v) disagrees", g)
			}
		}
	}

	// Whole-store views.
	me, se := mut.Entities(), sealed.Entities()
	if len(me) != len(se) {
		return fail("Entities %d != %d", len(me), len(se))
	}
	for i := range me {
		if me[i] != se[i] {
			return fail("Entities[%d]: %s != %s", i, u.Name(me[i]), u.Name(se[i]))
		}
	}
	mr, sr := mut.Relationships(), sealed.Relationships()
	if fmt.Sprint(mr) != fmt.Sprint(sr) {
		return fail("Relationships %v != %v", mr, sr)
	}
	for _, id := range anchors {
		if id == sym.None {
			continue
		}
		if mut.Degree(id) != sealed.Degree(id) {
			return fail("Degree(%s): %d != %d", u.Name(id), mut.Degree(id), sealed.Degree(id))
		}
		if mut.HasEntity(id) != sealed.HasEntity(id) {
			return fail("HasEntity(%s) disagrees", u.Name(id))
		}
	}
	if st := sealed.IndexStats(); st.Facts != sealed.Len() {
		return fail("IndexStats.Facts %d != Len %d", st.Facts, sealed.Len())
	}
	return nil
}

// factSet is the model a layered store is checked against.
type factSet map[fact.Fact]struct{}

// matching returns the model's answer to a pattern (sym.None is the
// wildcard).
func (m factSet) matching(s, r, t sym.ID) factSet {
	out := factSet{}
	for f := range m {
		if (s == sym.None || f.S == s) && (r == sym.None || f.R == r) && (t == sym.None || f.T == t) {
			out[f] = struct{}{}
		}
	}
	return out
}

// patternString renders a match pattern, wildcards as "·".
func patternString(u *fact.Universe, p [3]sym.ID) string {
	var names [3]string
	for i, id := range p {
		names[i] = "·"
		if id != sym.None {
			names[i] = u.Name(id)
		}
	}
	return fmt.Sprintf("(%s,%s,%s)", names[0], names[1], names[2])
}

// modelProbeCap bounds the facts whose eight bind patterns one full
// comparison probes.
const modelProbeCap = 48

// compareModel checks every read method of st against the model:
// Len, Facts, Has, all eight bind patterns of Match, MatchAll, Count
// and EstimateCount (exact, not an estimate) around each probe fact,
// Entities, HasEntity, Degree, Relationships and the IndexStats
// identity. probes are facts of interest (recently mutated, possibly
// absent); a sample of the model's own facts is added. Every MatchAll
// result is appended to, so a zero-copy result that let the append
// write into the store shows up in a later read.
func compareModel(u *fact.Universe, st *store.Store, model factSet, probes []fact.Fact, name string) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "layered-model", Detail: name + ": " + fmt.Sprintf(format, args...)}
	}
	if st.Len() != len(model) {
		return fail("Len %d, model %d", st.Len(), len(model))
	}
	if ix := st.IndexStats(); ix.Facts+ix.Delta-ix.Tombstones != len(model) {
		return fail("IndexStats %+v: base + delta - tombstones != %d", ix, len(model))
	}
	all := st.Facts()
	if len(all) != len(model) {
		return fail("Facts returned %d facts, model %d", len(all), len(model))
	}
	for _, f := range all {
		if _, ok := model[f]; !ok {
			return fail("Facts has %s, model does not", u.FormatFact(f))
		}
	}

	sorted := make([]fact.Fact, 0, len(model))
	for f := range model {
		sorted = append(sorted, f)
	}
	slices.SortFunc(sorted, func(a, b fact.Fact) int {
		return slices.Compare([]sym.ID{a.S, a.R, a.T}, []sym.ID{b.S, b.R, b.T})
	})
	probes = slices.Clone(probes)
	for i, step := 0, len(sorted)/modelProbeCap+1; i < len(sorted); i += step {
		probes = append(probes, sorted[i])
	}
	absent := u.Intern("LAYERED-ORACLE-ABSENT")
	probes = append(probes, fact.Fact{S: absent, R: absent, T: absent})
	bogus := fact.Fact{S: absent, R: absent, T: u.Intern("LAYERED-ORACLE-BOGUS")}
	for _, f := range probes {
		if _, want := model[f]; st.Has(f) != want {
			return fail("Has(%s) = %v, model %v", u.FormatFact(f), !want, want)
		}
		for mask := 0; mask < 8; mask++ {
			var p [3]sym.ID
			for i, id := range [3]sym.ID{f.S, f.R, f.T} {
				if mask&(1<<i) != 0 {
					p[i] = id
				}
			}
			pat := patternString(u, p)
			want := model.matching(p[0], p[1], p[2])
			seen := factSet{}
			st.Match(p[0], p[1], p[2], func(g fact.Fact) bool {
				seen[g] = struct{}{}
				return true
			})
			if !maps.Equal(seen, want) {
				return fail("Match%s: %d distinct facts, model %d", pat, len(seen), len(want))
			}
			if n := st.Count(p[0], p[1], p[2]); n != len(want) {
				return fail("Count%s = %d, model %d (a fact streamed twice?)", pat, n, len(want))
			}
			if n := st.EstimateCount(p[0], p[1], p[2]); n != len(want) {
				return fail("EstimateCount%s = %d, model %d", pat, n, len(want))
			}
			got := st.MatchAll(p[0], p[1], p[2])
			if len(got) != len(want) {
				return fail("MatchAll%s: %d facts, model %d", pat, len(got), len(want))
			}
			for _, g := range got {
				if _, ok := want[g]; !ok {
					return fail("MatchAll%s has %s, model does not", pat, u.FormatFact(g))
				}
			}
			_ = append(got, bogus)
		}
	}
	if st.Has(bogus) {
		return fail("an append to a MatchAll result wrote %s into the store", u.FormatFact(bogus))
	}

	// Whole-store views.
	degree := map[sym.ID]int{}
	rels := map[sym.ID]int{}
	ents := map[sym.ID]struct{}{}
	for f := range model {
		degree[f.S]++
		degree[f.T]++
		rels[f.R]++
		ents[f.S], ents[f.R], ents[f.T] = struct{}{}, struct{}{}, struct{}{}
	}
	wantEnts := make([]sym.ID, 0, len(ents))
	for id := range ents {
		wantEnts = append(wantEnts, id)
	}
	slices.Sort(wantEnts)
	if got := st.Entities(); !slices.Equal(got, wantEnts) {
		return fail("Entities: %d ids, model %d", len(got), len(wantEnts))
	}
	var wantRels []store.RelStat
	for r, n := range rels {
		wantRels = append(wantRels, store.RelStat{Rel: r, Count: n})
	}
	sort.Slice(wantRels, func(i, j int) bool {
		if wantRels[i].Count != wantRels[j].Count {
			return wantRels[i].Count > wantRels[j].Count
		}
		return wantRels[i].Rel < wantRels[j].Rel
	})
	if got := st.Relationships(); !slices.Equal(got, wantRels) {
		return fail("Relationships %v, model %v", got, wantRels)
	}
	for _, f := range probes {
		for _, id := range [3]sym.ID{f.S, f.R, f.T} {
			if _, want := ents[id]; st.HasEntity(id) != want {
				return fail("HasEntity(%s) = %v, model %v", u.Name(id), !want, want)
			}
			if st.Degree(id) != degree[id] {
				return fail("Degree(%s) = %d, model %d", u.Name(id), st.Degree(id), degree[id])
			}
		}
	}
	return nil
}

// LayeredModel replays the world's program against one store lineage
// and a plain set, and compares every read method after each step. An
// assert is an Insert and a retract a Delete; a rule toggle, and any
// mutation whose fact hashes to it, seals the current store, keeps it,
// and continues on its clone — which shares the sealed store's base
// and carries its own delta and tombstones, so later steps delete
// base facts, resurrect them, and push the layers across the fold
// threshold. A second pass replays the program backwards with asserts
// and retracts swapped, tombstoning most of what the first pass folded
// into a base. At the end every kept snapshot must still equal the
// set it was sealed with: nothing a descendant did, folds included,
// may show through a shared base.
//
// Each step depends only on its own op, so any subsequence of a
// failing program is a valid program and gen.Shrink minimizes it.
func LayeredModel(w *gen.World) *Failure {
	u := fact.NewUniverse()
	cur := store.New(u)
	model := factSet{}
	type snapshot struct {
		st    *store.Store
		model factSet
		step  string
	}
	var held []snapshot
	var recent []fact.Fact // facts of the latest mutations: the ones layers are most likely wrong about

	sealAndClone := func(step string) *Failure {
		cur.Seal()
		if f := compareModel(u, cur, model, recent, "sealed at "+step); f != nil {
			return f
		}
		held = append(held, snapshot{cur, maps.Clone(model), step})
		cur = cur.Clone()
		if cur.Sealed() {
			return &Failure{Oracle: "layered-model", Detail: "clone of a sealed store is sealed (" + step + ")"}
		}
		return compareModel(u, cur, model, recent, "clone at "+step)
	}
	for pass := 0; pass < 2; pass++ {
		for i := range w.Ops {
			op := w.Ops[i]
			if pass == 1 {
				op = w.Ops[len(w.Ops)-1-i]
			}
			step := fmt.Sprintf("pass %d, %s", pass, op)
			if op.Kind != gen.OpAssert && op.Kind != gen.OpRetract {
				if f := sealAndClone(step); f != nil {
					return f
				}
				continue
			}
			f := u.NewFact(op.S, op.R, op.T)
			_, present := model[f]
			var changed bool
			if insert := (op.Kind == gen.OpAssert) == (pass == 0); insert {
				changed = cur.Insert(f)
				model[f] = struct{}{}
				present = !present
			} else {
				changed = cur.Delete(f)
				delete(model, f)
			}
			if changed != present {
				return &Failure{Oracle: "layered-model", Detail: fmt.Sprintf("%s reported changed=%v, model says %v", step, changed, present)}
			}
			if len(recent) == 8 {
				recent = recent[1:]
			}
			recent = append(recent, f)
			if fail := compareModel(u, cur, model, recent[len(recent)-1:], "after "+step); fail != nil {
				return fail
			}
			h := fnv.New32a()
			h.Write([]byte(op.S + "\x00" + op.R + "\x00" + op.T))
			if h.Sum32()%4 == uint32(pass) {
				if f := sealAndClone(step); f != nil {
					return f
				}
			}
		}
	}
	if f := sealAndClone("end of program"); f != nil {
		return f
	}
	for _, s := range held {
		if f := compareModel(u, s.st, s.model, nil, "snapshot sealed at "+s.step+", re-read at the end"); f != nil {
			return f
		}
	}
	return nil
}

// SealedVsMutable checks that sealing is invisible to readers on both
// stores a world carries: the base store (mutable vs sealed clone) and
// the closure store (sealed vs mutable clone).
func SealedVsMutable(w *gen.World) *Failure {
	db := w.Build()
	u := db.Universe()

	base := db.Store()
	sealedBase := base.Clone()
	sealedBase.Seal()
	if f := compareStores(u, base, sealedBase, "base"); f != nil {
		return f
	}

	closure := db.Engine().Closure() // published sealed
	mutClosure := closure.Clone()    // clone of sealed is mutable
	if mutClosure.Sealed() {
		return &Failure{Oracle: "sealed-vs-mutable", Detail: "closure clone is sealed"}
	}
	return compareStores(u, mutClosure, closure, "closure")
}

// SealedVsMutableScale is the memory-scale variant: a Zipf world bulk
// loaded through store.SealedFromFacts versus the same facts replayed
// through the mutable insert path, probed by concurrent readers (run
// under -race this also exercises the sealed index's lock-free read
// claim). cfg.Facts defaults per gen.ScaleConfig; a million-entity
// run is LSDB_SCALE_FACTS=1000000 away (see make check-scale).
func SealedVsMutableScale(cfg gen.ScaleConfig) *Failure {
	cfg = cfg.Normalized()
	u := fact.NewUniverse()
	sealed := gen.BuildScaleStore(u, cfg)
	mut := gen.BuildScaleMutable(u, cfg)

	if f := compareStores(u, mut, sealed, fmt.Sprintf("scale(%d)", cfg.Facts)); f != nil {
		return f
	}

	// Concurrent probe goroutines over disjoint fact ranges: readers
	// must agree with the mutable reference while sharing the sealed
	// index without locks.
	workers := min(4, runtime.GOMAXPROCS(0))
	if workers < 2 {
		workers = 2
	}
	facts := sealed.Facts()
	var wg sync.WaitGroup
	fails := make([]*Failure, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				if fails[g] == nil {
					fails[g] = &Failure{
						Oracle: "sealed-vs-mutable",
						Detail: fmt.Sprintf("scale concurrent reader %d: ", g) + fmt.Sprintf(format, args...),
					}
				}
			}
			for i := g; i < len(facts); i += workers * 97 {
				f := facts[i]
				if !sealed.Has(f) {
					fail("sealed lost %v", f)
					return
				}
				if mut.Count(sym.None, f.R, f.T) != sealed.Count(sym.None, f.R, f.T) {
					fail("Count(·,%s,%s) disagrees", u.Name(f.R), u.Name(f.T))
					return
				}
				if mut.EstimateCount(f.S, f.R, sym.None) != sealed.EstimateCount(f.S, f.R, sym.None) {
					fail("EstimateCount(%s,%s,·) disagrees", u.Name(f.S), u.Name(f.R))
					return
				}
				if len(mut.MatchAll(f.S, sym.None, f.T)) != len(sealed.MatchAll(f.S, sym.None, f.T)) {
					fail("MatchAll(%s,·,%s) disagrees", u.Name(f.S), u.Name(f.T))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fails {
		if f != nil {
			return f
		}
	}
	return nil
}
