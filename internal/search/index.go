package search

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// The indexed-entity spec (mirrored, independently, by the brute-force
// oracle in internal/check/search.go — change one and the diff fails).
// docEnv.document is its one implementation: build runs it over every
// entity, a patch (overlay.go) over the entities a write touched.
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
//   - Name key: the entity's name through QueryTerms, space-joined. A
//     query whose terms join to the same key is an exact-name match.
//
// All token postings are entity ordinals (name-sorted order), encoded
// per (token, field) as delta+varint runs in one shared arena.

// source answers the one adjacency question the document rules ask:
// which stored facts have an entity in S position, and which in T
// position. build answers it from one pass over the facts, a patch
// from the store's own indexes.
type source interface {
	out(e sym.ID, fn func(fact.Fact) bool)
	in(e sym.ID, fn func(fact.Fact) bool)
}

// storeSource reads a live store through its S and T indexes.
type storeSource struct{ st *store.Store }

func (s storeSource) out(e sym.ID, fn func(fact.Fact) bool) { s.st.Match(e, sym.None, sym.None, fn) }
func (s storeSource) in(e sym.ID, fn func(fact.Fact) bool)  { s.st.Match(sym.None, sym.None, e, fn) }

// factSource is a fact slice bucketed by S and by T (two counting
// sorts indexed by entity ID), built once per full build.
type factSource struct {
	outOff, inOff []int32 // facts of entity e: [off[e], off[e+1])
	outF, inF     []fact.Fact
}

func newFactSource(facts []fact.Fact, maxID sym.ID) *factSource {
	n := int(maxID) + 2
	fs := &factSource{
		outOff: make([]int32, n), inOff: make([]int32, n),
		outF: make([]fact.Fact, len(facts)), inF: make([]fact.Fact, len(facts)),
	}
	for _, f := range facts {
		fs.outOff[f.S+1]++
		fs.inOff[f.T+1]++
	}
	for i := 1; i < n; i++ {
		fs.outOff[i] += fs.outOff[i-1]
		fs.inOff[i] += fs.inOff[i-1]
	}
	outAt, inAt := slices.Clone(fs.outOff), slices.Clone(fs.inOff)
	for _, f := range facts {
		fs.outF[outAt[f.S]] = f
		outAt[f.S]++
		fs.inF[inAt[f.T]] = f
		inAt[f.T]++
	}
	return fs
}

func (fs *factSource) out(e sym.ID, fn func(fact.Fact) bool) {
	for _, f := range fs.outF[fs.outOff[e]:fs.outOff[e+1]] {
		if !fn(f) {
			return
		}
	}
}

func (fs *factSource) in(e sym.ID, fn func(fact.Fact) bool) {
	for _, f := range fs.inF[fs.inOff[e]:fs.inOff[e+1]] {
		if !fn(f) {
			return
		}
	}
}

// docEnv derives entity documents over one source.
type docEnv struct {
	u     *fact.Universe
	src   source
	toks  func(sym.ID) []string // name tokens of an entity
	comps map[sym.ID][]sym.ID   // synonym components found so far, by member
}

// synNeighbours calls fn for every synonym edge of x: stored ≈ facts
// in either direction and two-way ≺ pairs.
func (d *docEnv) synNeighbours(x sym.ID, fn func(sym.ID)) {
	u := d.u
	var genIn []sym.ID
	d.src.in(x, func(f fact.Fact) bool {
		switch f.R {
		case u.Syn:
			fn(f.S)
		case u.Gen:
			genIn = append(genIn, f.S)
		}
		return true
	})
	d.src.out(x, func(f fact.Fact) bool {
		switch {
		case f.R == u.Syn:
			fn(f.T)
		case f.R == u.Gen && slices.Contains(genIn, f.T):
			fn(f.T)
		}
		return true
	})
}

// synonyms returns e's synonym component, e included. Components of
// more than one member are found once and shared by every member.
func (d *docEnv) synonyms(e sym.ID) []sym.ID {
	if c, ok := d.comps[e]; ok {
		return c
	}
	comp := []sym.ID{e}
	for i := 0; i < len(comp); i++ {
		d.synNeighbours(comp[i], func(n sym.ID) {
			if !slices.Contains(comp, n) {
				comp = append(comp, n)
			}
		})
	}
	if len(comp) > 1 {
		for _, m := range comp {
			d.comps[m] = comp
		}
	}
	return comp
}

// document derives entity e's document by the spec above: it calls
// emit for every (field, token) of it, duplicates included, and
// returns e's degree.
func (d *docEnv) document(e sym.ID, emit func(field int, tok string)) int32 {
	u := d.u
	for _, tok := range d.toks(e) {
		emit(FieldName, tok)
	}
	for _, m := range d.synonyms(e) {
		if m != e {
			for _, tok := range d.toks(m) {
				emit(FieldSyn, tok)
			}
		}
	}

	// Taxonomy walk: direct classes, then two more ≺ steps.
	var levels [3][]sym.ID
	seen := func(c sym.ID, depth int) bool {
		for _, l := range levels[:depth+1] {
			if slices.Contains(l, c) {
				return true
			}
		}
		return false
	}
	d.src.out(e, func(f fact.Fact) bool {
		if (f.R == u.Member || f.R == u.Gen) && f.T != e && !u.Special(f.T) && !seen(f.T, 0) {
			levels[0] = append(levels[0], f.T)
		}
		return true
	})
	for depth := 1; depth < len(levels); depth++ {
		for _, c := range levels[depth-1] {
			d.src.out(c, func(f fact.Fact) bool {
				if f.R == u.Gen && f.T != e && !u.Special(f.T) && !seen(f.T, depth) {
					levels[depth] = append(levels[depth], f.T)
				}
				return true
			})
		}
	}
	for depth, level := range levels {
		for _, c := range level {
			for _, tok := range d.toks(c) {
				emit(FieldClass1+depth, tok)
			}
		}
	}

	// Neighborhood co-occurrence and degree.
	var deg int32
	special := u.Special(e)
	nbr := func(x sym.ID) {
		if !special && !u.Special(x) {
			for _, tok := range d.toks(x) {
				emit(FieldNbr, tok)
			}
		}
	}
	d.src.out(e, func(f fact.Fact) bool {
		deg++
		nbr(f.R)
		nbr(f.T)
		return true
	})
	d.src.in(e, func(f fact.Fact) bool {
		deg++
		nbr(f.S)
		nbr(f.R)
		return true
	})
	return deg
}

// nameKey is the exact-name key of a token list: the tokens as
// QueryTerms leaves them, space-joined. toks is not modified.
func nameKey(toks []string) string {
	return strings.Join(distinct(slices.Clone(toks)), " ")
}

// build constructs a full index over the store. The version is read
// before the facts so the base's content is never older than its tag:
// a write that lands mid-build is replayed by the next patch, which
// re-derives what it touched from the store as it then is.
func build(u *fact.Universe, st *store.Store) *base {
	version := st.Version()
	facts := st.Facts()

	// Entity ordinals, sorted by name (names are unique).
	maxID := sym.ID(0)
	for _, f := range facts {
		maxID = max(maxID, f.S, f.R, f.T)
	}
	b := &base{version: version, nameOf: make(map[string][]uint32)}
	ordOf := make([]uint32, int(maxID)+1) // ordinal+1, 0 = not an entity
	type named struct {
		name string
		id   sym.ID
	}
	var ents []named
	for _, f := range facts {
		for _, id := range [3]sym.ID{f.S, f.R, f.T} {
			if ordOf[id] == 0 {
				ordOf[id] = 1
				ents = append(ents, named{u.Name(id), id})
			}
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	b.ids = make([]sym.ID, len(ents))
	b.names = make([]string, len(ents))
	b.degrees = make([]int32, len(ents))
	entToks := make([][]string, len(ents))
	for i, e := range ents {
		b.ids[i], b.names[i] = e.id, e.name
		ordOf[e.id] = uint32(i) + 1
		entToks[i] = Tokenize(e.name)
		if len(entToks[i]) > 0 {
			key := nameKey(entToks[i])
			b.nameOf[key] = append(b.nameOf[key], uint32(i))
		}
	}

	env := &docEnv{
		u:     u,
		src:   newFactSource(facts, maxID),
		toks:  func(id sym.ID) []string { return entToks[ordOf[id]-1] },
		comps: make(map[sym.ID][]sym.ID),
	}
	pb := newPostBuilder()
	var cur uint32
	emit := func(field int, tok string) { pb.add(tok, field, cur) }
	for i, id := range b.ids {
		cur = uint32(i)
		b.degrees[i] = env.document(id, emit)
	}
	pb.finalize(&b.idx)

	// Deterministic footprint estimate: the postings plus the
	// per-entity columns. Map overhead is runtime-dependent and
	// excluded, like store.IndexBytes.
	nameBytes := 0
	for _, n := range b.names {
		nameBytes += len(n)
	}
	b.bytes = b.idx.bytes() + len(b.ids)*(4+4+16) + nameBytes
	return b
}

// postings is one inverted index: a sorted vocabulary and, per
// (token, field), a run of ascending entity ordinals delta+varint
// encoded into one arena with the sealed store's run codec.
type postings struct {
	toks  []string
	posts [NumFields][]plist
	arena []byte
}

// plist locates one posting run inside the arena.
type plist struct {
	off uint32
	n   uint32
}

// bytes estimates the footprint: arena + vocabulary bytes and headers
// + posting tables.
func (p *postings) bytes() int {
	tokBytes := 0
	for _, tok := range p.toks {
		tokBytes += len(tok)
	}
	return len(p.arena) + tokBytes + len(p.toks)*16 + NumFields*len(p.toks)*8
}

// postBuilder accumulates per-(token, field) ordinal runs, then
// encodes the sorted vocabulary into a postings arena. Documents are
// added in ordinal order, so every run is ascending and a duplicate is
// always the run's last element.
type postBuilder struct {
	toks map[string]*[NumFields][]uint32
}

func newPostBuilder() *postBuilder {
	return &postBuilder{toks: make(map[string]*[NumFields][]uint32)}
}

// add appends ord to (tok, field) unless it is already there.
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

func (b *postBuilder) finalize(p *postings) {
	p.toks = make([]string, 0, len(b.toks))
	for tok := range b.toks {
		p.toks = append(p.toks, tok)
	}
	sort.Strings(p.toks)
	for f := range p.posts {
		p.posts[f] = make([]plist, len(p.toks))
	}
	for i, tok := range p.toks {
		runs := b.toks[tok]
		for f, run := range runs {
			if len(run) > 0 {
				p.posts[f][i] = plist{off: uint32(len(p.arena)), n: uint32(len(run))}
				p.arena = store.AppendUvarintRun(p.arena, run)
			}
		}
	}
}
