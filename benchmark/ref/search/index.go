package search

import (
	"sort"
	"strings"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/store"
	"repro/benchmark/ref/sym"
)

// The indexed-entity spec (mirrored, independently, by the brute-force
// oracle in internal/check/search.go — change one and the diff fails):
//
//   - Entities: every distinct S, R and T of the stored facts.
//   - Degree: stored facts with the entity in S position plus T
//     position (the store's own Degree definition).
//   - FieldName: tokens of the entity's name.
//   - FieldSyn: tokens of the names of the other members of its
//     synonym class — the connected component over stored ≈ facts
//     plus two-way ≺ pairs (synonym by definition, §3.4).
//   - FieldClass1..3: tokens of class names reached by the taxonomy
//     walk — depth 1 is the non-special targets of stored (e ∈ c) and
//     (e ≺ c); each further depth follows stored ≺ one more step,
//     keeping only classes not seen at a shallower depth and never
//     the entity itself.
//   - FieldNbr: for each stored fact the entity is the source or
//     target of, the tokens of the other two components' names,
//     skipping special entities (∈, ≺, ≈, ⇌, Δ, ∇, …) on both sides.
//
// All token postings are entity ordinals (name-sorted order), encoded
// per (token, field) as delta+varint runs in one shared arena.

// build constructs an index snapshot. The version is read before the
// fact slice so the snapshot's content is never older than its tag: a
// write that lands mid-build moves the version and forces the next
// query to rebuild.
func build(u *fact.Universe, st *store.Store) *snapshot {
	version := st.Version()
	facts := st.Facts()

	// Entity ordinals, sorted by name (names are unique).
	deg := make(map[sym.ID]int32)
	for _, f := range facts {
		deg[f.S]++
		deg[f.T]++
		if _, ok := deg[f.R]; !ok {
			deg[f.R] = 0
		}
	}
	sn := &snapshot{
		version: version,
		ids:     make([]sym.ID, 0, len(deg)),
		nameOf:  make(map[string][]uint32),
	}
	for id := range deg {
		sn.ids = append(sn.ids, id)
	}
	names := make([]string, len(sn.ids))
	byName := make(map[sym.ID]string, len(sn.ids))
	for i, id := range sn.ids {
		names[i] = u.Name(id)
		byName[id] = names[i]
	}
	sort.Slice(sn.ids, func(i, j int) bool { return byName[sn.ids[i]] < byName[sn.ids[j]] })
	sn.names = make([]string, len(sn.ids))
	sn.degrees = make([]int32, len(sn.ids))
	ord := make(map[sym.ID]uint32, len(sn.ids))
	for i, id := range sn.ids {
		sn.names[i] = byName[id]
		sn.degrees[i] = deg[id]
		ord[id] = uint32(i)
	}

	// Adjacency for the taxonomy walk and synonym components.
	genOut := make(map[sym.ID][]sym.ID) // stored a ≺ b
	memOut := make(map[sym.ID][]sym.ID) // stored a ∈ b
	genSet := make(map[[2]sym.ID]bool)
	uf := newUnionFind(len(sn.ids))
	for _, f := range facts {
		switch f.R {
		case u.Gen:
			genOut[f.S] = append(genOut[f.S], f.T)
			genSet[[2]sym.ID{f.S, f.T}] = true
		case u.Member:
			memOut[f.S] = append(memOut[f.S], f.T)
		case u.Syn:
			uf.union(ord[f.S], ord[f.T])
		}
	}
	for p := range genSet {
		if p[0] < p[1] && genSet[[2]sym.ID{p[1], p[0]}] {
			uf.union(ord[p[0]], ord[p[1]])
		}
	}
	comp := make(map[uint32][]uint32)
	for i := range sn.ids {
		comp[uf.find(uint32(i))] = append(comp[uf.find(uint32(i))], uint32(i))
	}

	// Per-entity name tokens, computed once and reused by every field.
	entToks := make([][]string, len(sn.ids))
	for i, name := range sn.names {
		entToks[i] = Tokenize(name)
		if len(entToks[i]) > 0 {
			key := strings.Join(entToks[i], " ")
			sn.nameOf[key] = append(sn.nameOf[key], uint32(i))
		}
	}

	b := newPostBuilder()
	classLevels := make([]map[sym.ID]bool, 3)
	for i := range sn.ids {
		e := sn.ids[i]
		o := uint32(i)
		for _, tok := range entToks[i] {
			b.add(tok, FieldName, o)
		}
		if members := comp[uf.find(o)]; len(members) > 1 {
			for _, m := range members {
				if m == o {
					continue
				}
				for _, tok := range entToks[m] {
					b.add(tok, FieldSyn, o)
				}
			}
		}
		// Taxonomy walk: direct classes, then two more ≺ steps.
		for d := range classLevels {
			classLevels[d] = nil
		}
		direct := make(map[sym.ID]bool)
		for _, c := range append(append([]sym.ID{}, memOut[e]...), genOut[e]...) {
			if c != e && !u.Special(c) {
				direct[c] = true
			}
		}
		classLevels[0] = direct
		seen := func(c sym.ID, depth int) bool {
			for d := 0; d < depth; d++ {
				if classLevels[d][c] {
					return true
				}
			}
			return false
		}
		for depth := 1; depth < 3; depth++ {
			next := make(map[sym.ID]bool)
			for c := range classLevels[depth-1] {
				for _, up := range genOut[c] {
					if up != e && !u.Special(up) && !seen(up, depth) {
						next[up] = true
					}
				}
			}
			classLevels[depth] = next
		}
		for depth, level := range classLevels {
			for c := range level {
				for _, tok := range entToks[ord[c]] {
					b.add(tok, FieldClass1+depth, o)
				}
			}
		}
	}

	// Neighborhood co-occurrence: one pass over the facts; runs are
	// sorted+deduped at finalize since fact order is not ordinal order.
	for _, f := range facts {
		if !u.Special(f.S) {
			if !u.Special(f.R) {
				for _, tok := range entToks[ord[f.R]] {
					b.add(tok, FieldNbr, ord[f.S])
				}
			}
			if !u.Special(f.T) {
				for _, tok := range entToks[ord[f.T]] {
					b.add(tok, FieldNbr, ord[f.S])
				}
			}
		}
		if !u.Special(f.T) {
			if !u.Special(f.S) {
				for _, tok := range entToks[ord[f.S]] {
					b.add(tok, FieldNbr, ord[f.T])
				}
			}
			if !u.Special(f.R) {
				for _, tok := range entToks[ord[f.R]] {
					b.add(tok, FieldNbr, ord[f.T])
				}
			}
		}
	}

	b.finalize(sn)
	return sn
}

// postBuilder accumulates per-(token, field) ordinal runs, then
// encodes the sorted vocabulary into the snapshot arena.
type postBuilder struct {
	toks map[string]*[NumFields][]uint32
}

func newPostBuilder() *postBuilder {
	return &postBuilder{toks: make(map[string]*[NumFields][]uint32)}
}

// add appends ord to (tok, field). Consecutive duplicates are dropped
// here; non-consecutive ones (the neighborhood field) at finalize.
func (b *postBuilder) add(tok string, field int, ord uint32) {
	p := b.toks[tok]
	if p == nil {
		p = new([NumFields][]uint32)
		b.toks[tok] = p
	}
	if run := p[field]; len(run) > 0 && run[len(run)-1] == ord {
		return
	}
	p[field] = append(p[field], ord)
}

func (b *postBuilder) finalize(sn *snapshot) {
	sn.toks = make([]string, 0, len(b.toks))
	for tok := range b.toks {
		sn.toks = append(sn.toks, tok)
	}
	sort.Strings(sn.toks)
	for f := range sn.posts {
		sn.posts[f] = make([]plist, len(sn.toks))
	}
	tokBytes := 0
	for i, tok := range sn.toks {
		tokBytes += len(tok)
		p := b.toks[tok]
		for f := 0; f < NumFields; f++ {
			run := p[f]
			if len(run) == 0 {
				continue
			}
			if f == FieldNbr {
				sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
				run = store.DedupSorted(run)
			}
			sn.posts[f][i] = plist{off: uint32(len(sn.arena)), n: uint32(len(run))}
			sn.arena = store.AppendUvarintRun(sn.arena, run)
		}
	}
	// Deterministic footprint estimate: arena + vocabulary bytes and
	// headers + posting tables + the per-entity columns. Map overhead
	// is runtime-dependent and excluded, like store.IndexBytes.
	nameBytes := 0
	for _, n := range sn.names {
		nameBytes += len(n)
	}
	sn.bytes = len(sn.arena) + tokBytes + len(sn.toks)*16 +
		NumFields*len(sn.toks)*8 + len(sn.ids)*(4+4+16) + nameBytes
}

// unionFind is a plain path-halving union-find over entity ordinals.
type unionFind struct{ parent []uint32 }

func newUnionFind(n int) *unionFind {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x uint32) uint32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b uint32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}
