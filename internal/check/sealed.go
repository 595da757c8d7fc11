package check

// Layered-store oracles. A store.Store reads as one set the three
// layers it keeps — a compressed posting-list base shared between
// clones, a hash-indexed delta, a tombstone set — and Seal folds them
// into a new base past a threshold (store/store.go). These oracles
// demand that the layering is invisible. layeredModel replays a world
// as interleaved Insert/Delete/resurrect/Seal/Clone steps and checks
// every read method against a plain set after each; the
// sealed-vs-mutable pair checks the two extreme shapes (all delta,
// all base) of the same fact set against that set.

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

// factSet is the model a layered store is checked against.
type factSet map[fact.Fact]struct{}

// matcher returns the model's answers to patterns (sym.None is the
// wildcard). It indexes the model by each position once, so an answer
// costs a scan of the facts sharing one bound position, not of the
// model.
func (m factSet) matcher() func(p [3]sym.ID) factSet {
	var by [3]map[sym.ID][]fact.Fact
	for i := range by {
		by[i] = map[sym.ID][]fact.Fact{}
	}
	for f := range m {
		for i, id := range [3]sym.ID{f.S, f.R, f.T} {
			by[i][id] = append(by[i][id], f)
		}
	}
	return func(p [3]sym.ID) factSet {
		out := factSet{}
		for i, id := range p {
			if id == sym.None {
				continue
			}
			for _, f := range by[i][id] {
				if (p[0] == sym.None || f.S == p[0]) && (p[1] == sym.None || f.R == p[1]) && (p[2] == sym.None || f.T == p[2]) {
					out[f] = struct{}{}
				}
			}
			return out
		}
		return maps.Clone(m)
	}
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

// sameReads checks every read method of st against the model:
// Len, Facts, Has, all eight bind patterns of Match, MatchAll, Count
// and EstimateCount (exact, not an estimate) around each probe fact,
// Entities, HasEntity, Degree, Relationships and the IndexStats
// identity. probes are facts of interest (recently mutated, possibly
// absent); a sample of the model's own facts and a fact of absent
// entities are added. Every MatchAll result is appended to, so a
// zero-copy result that let the append write into the store shows up
// in a later read.
func sameReads(u *fact.Universe, st *store.Store, model factSet, probes []fact.Fact) error {
	if st.Len() != len(model) {
		return fmt.Errorf("Len %d, model %d", st.Len(), len(model))
	}
	if ix := st.IndexStats(); ix.Facts+ix.Delta-ix.Tombstones != len(model) {
		return fmt.Errorf("IndexStats %+v: base + delta - tombstones != %d", ix, len(model))
	}
	all := st.Facts()
	if len(all) != len(model) {
		return fmt.Errorf("Facts returned %d facts, model %d", len(all), len(model))
	}
	for _, f := range all {
		if _, ok := model[f]; !ok {
			return fmt.Errorf("Facts has %s, model does not", u.FormatFact(f))
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
	patterns := map[[3]sym.ID]bool{}
	for _, f := range probes {
		if _, want := model[f]; st.Has(f) != want {
			return fmt.Errorf("Has(%s) = %v, model %v", u.FormatFact(f), !want, want)
		}
		for mask := 0; mask < 8; mask++ {
			var p [3]sym.ID
			for i, id := range [3]sym.ID{f.S, f.R, f.T} {
				if mask&(1<<i) != 0 {
					p[i] = id
				}
			}
			patterns[p] = true
		}
	}
	matching := model.matcher()
	for p := range patterns {
		pat := patternString(u, p)
		want := matching(p)
		seen := factSet{}
		st.Match(p[0], p[1], p[2], func(g fact.Fact) bool {
			seen[g] = struct{}{}
			return true
		})
		if !maps.Equal(seen, want) {
			return fmt.Errorf("Match%s: %d distinct facts, model %d", pat, len(seen), len(want))
		}
		if n := st.Count(p[0], p[1], p[2]); n != len(want) {
			return fmt.Errorf("Count%s = %d, model %d (a fact streamed twice?)", pat, n, len(want))
		}
		if n := st.EstimateCount(p[0], p[1], p[2]); n != len(want) {
			return fmt.Errorf("EstimateCount%s = %d, model %d", pat, n, len(want))
		}
		got := st.MatchAll(p[0], p[1], p[2])
		if len(got) != len(want) {
			return fmt.Errorf("MatchAll%s: %d facts, model %d", pat, len(got), len(want))
		}
		for _, g := range got {
			if _, ok := want[g]; !ok {
				return fmt.Errorf("MatchAll%s has %s, model does not", pat, u.FormatFact(g))
			}
		}
		_ = append(got, bogus)
	}
	if st.Has(bogus) {
		return fmt.Errorf("an append to a MatchAll result wrote %s into the store", u.FormatFact(bogus))
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
		return fmt.Errorf("Entities: %d ids, model %d", len(got), len(wantEnts))
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
		return fmt.Errorf("Relationships %v, model %v", got, wantRels)
	}
	for _, f := range probes {
		for _, id := range [3]sym.ID{f.S, f.R, f.T} {
			if _, want := ents[id]; st.HasEntity(id) != want {
				return fmt.Errorf("HasEntity(%s) = %v, model %v", u.Name(id), !want, want)
			}
			if st.Degree(id) != degree[id] {
				return fmt.Errorf("Degree(%s) = %d, model %d", u.Name(id), st.Degree(id), degree[id])
			}
		}
	}
	return nil
}

// layeredModel replays the world's program against one store lineage
// and a plain set, and compares every read method after each step. An
// assert is an Insert and a retract a Delete; a mutation whose fact
// hashes to it seals the current store, keeps it, and continues on its
// clone — which shares the sealed store's base and carries its own
// delta and tombstones, so later steps delete base facts, resurrect
// them, and push the layers across the fold threshold. A rule toggle
// keeps the current store unsealed and continues on its clone, so a
// clone of a mutable store is checked too. A second pass replays the
// program backwards with asserts and retracts swapped, tombstoning
// most of what the first pass folded into a base. At the end every
// kept snapshot must still equal the set it was kept with: nothing a
// descendant did, folds included, may show through a shared base or a
// cloned delta.
//
// Each step depends only on its own op, so any subsequence of a
// failing program is a valid program and gen.Shrink minimizes it.
func layeredModel(w *gen.World, _ Options) error {
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

	// keep holds cur for the re-read at the end, sealing it first when
	// seal is set, and continues on its clone.
	keep := func(step string, seal bool) error {
		if seal {
			cur.Seal()
			if err := sameReads(u, cur, model, recent); err != nil {
				return fmt.Errorf("sealed at %s: %v", step, err)
			}
		}
		held = append(held, snapshot{cur, maps.Clone(model), step})
		cur = cur.Clone()
		if cur.Sealed() {
			return fmt.Errorf("clone at %s is sealed", step)
		}
		if err := sameReads(u, cur, model, recent); err != nil {
			return fmt.Errorf("clone at %s: %v", step, err)
		}
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for i := range w.Ops {
			op := w.Ops[i]
			if pass == 1 {
				op = w.Ops[len(w.Ops)-1-i]
			}
			step := fmt.Sprintf("pass %d, %s", pass, op)
			if op.Kind != gen.OpAssert && op.Kind != gen.OpRetract {
				if err := keep(step, false); err != nil {
					return err
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
				return fmt.Errorf("%s reported changed=%v, model says %v", step, changed, present)
			}
			if len(recent) == 8 {
				recent = recent[1:]
			}
			recent = append(recent, f)
			if err := sameReads(u, cur, model, recent[len(recent)-1:]); err != nil {
				return fmt.Errorf("after %s: %v", step, err)
			}
			h := fnv.New32a()
			h.Write([]byte(op.S + "\x00" + op.R + "\x00" + op.T))
			if h.Sum32()%4 == uint32(pass) {
				if err := keep(step, true); err != nil {
					return err
				}
			}
		}
	}
	if err := keep("end of program", true); err != nil {
		return err
	}
	for _, s := range held {
		if err := sameReads(u, s.st, s.model, nil); err != nil {
			return fmt.Errorf("snapshot kept at %s, re-read at the end: %v", s.step, err)
		}
	}
	return nil
}

// sameShapes checks that sealing is invisible to readers: the sealed
// store has every fact of the mutable one, and both read as that fact
// set.
func sameShapes(u *fact.Universe, mut, sealed *store.Store) error {
	model := factSet{}
	facts := mut.Facts()
	for _, f := range facts {
		model[f] = struct{}{}
		if !sealed.Has(f) {
			return fmt.Errorf("sealed missing stored fact %s", u.FormatFact(f))
		}
	}
	// Probe facts that mix the positions of different stored facts, or
	// reverse one, are mostly absent: they ask the indexes for pairs no
	// fact holds.
	var probes []fact.Fact
	for i, step := 0, len(facts)/modelProbeCap+1; i+2 < len(facts); i += step {
		f := facts[i]
		probes = append(probes, fact.Fact{S: f.S, R: facts[i+1].R, T: facts[i+2].T}, fact.Fact{S: f.T, R: f.R, T: f.S})
	}
	if err := sameReads(u, mut, model, probes); err != nil {
		return fmt.Errorf("mutable: %v", err)
	}
	if err := sameReads(u, sealed, model, probes); err != nil {
		return fmt.Errorf("sealed: %v", err)
	}
	return nil
}

// sealedVsMutable checks that sealing is invisible to readers on both
// stores a world carries: the base store (mutable vs sealed clone) and
// the closure store (sealed vs mutable clone).
func sealedVsMutable(w *gen.World, _ Options) error {
	db := w.Build()
	u := db.Universe()

	base := db.Store()
	sealedBase := base.Clone()
	sealedBase.Seal()
	if err := sameShapes(u, base, sealedBase); err != nil {
		return fmt.Errorf("base: %v", err)
	}

	closure := db.Engine().Closure() // published sealed
	mutClosure := closure.Clone()    // clone of sealed is mutable
	if mutClosure.Sealed() {
		return fmt.Errorf("closure clone is sealed")
	}
	if err := sameShapes(u, mutClosure, closure); err != nil {
		return fmt.Errorf("closure: %v", err)
	}
	return nil
}

// scaleSweep is the memory-scale variant of sealedVsMutable: a Zipf
// world of o.Points facts from the world's seed, bulk loaded through
// store.SealedFromFacts versus the same facts replayed through the
// mutable insert path, probed by concurrent readers (run under -race
// this also exercises the sealed index's lock-free read claim).
func scaleSweep(w *gen.World, o Options) error {
	return sealedVsMutableScale(gen.ScaleConfig{Facts: o.Points, Seed: w.Seed})
}

func sealedVsMutableScale(cfg gen.ScaleConfig) error {
	cfg = cfg.Normalized()
	u := fact.NewUniverse()
	sealed := gen.BuildScaleStore(u, cfg)
	mut := gen.BuildScaleMutable(u, cfg)

	if err := sameShapes(u, mut, sealed); err != nil {
		return fmt.Errorf("scale(%d): %v", cfg.Facts, err)
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
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(facts) && errs[g] == nil; i += workers * 97 {
				f := facts[i]
				switch {
				case !sealed.Has(f):
					errs[g] = fmt.Errorf("sealed lost %v", f)
				case mut.Count(sym.None, f.R, f.T) != sealed.Count(sym.None, f.R, f.T):
					errs[g] = fmt.Errorf("Count(·,%s,%s) disagrees", u.Name(f.R), u.Name(f.T))
				case mut.EstimateCount(f.S, f.R, sym.None) != sealed.EstimateCount(f.S, f.R, sym.None):
					errs[g] = fmt.Errorf("EstimateCount(%s,%s,·) disagrees", u.Name(f.S), u.Name(f.R))
				case len(mut.MatchAll(f.S, sym.None, f.T)) != len(sealed.MatchAll(f.S, sym.None, f.T)):
					errs[g] = fmt.Errorf("MatchAll(%s,·,%s) disagrees", u.Name(f.S), u.Name(f.T))
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			return fmt.Errorf("scale concurrent reader %d: %v", g, err)
		}
	}
	return nil
}
