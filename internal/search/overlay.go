package search

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// foldFraction is the store's fold rule, applied to the index: a patch
// whose overlay would hold more than 1/foldFraction of the base's
// entities folds instead (a full build). Between folds a query pays
// for the overlay on top of the base; at 1/16 that is at most a
// sixteenth more documents, and a fold — O(world), like a store fold —
// comes at most once per base/16 touched entities. A constant, not a
// knob, for the store's reason: neither side of the trade depends on
// the workload.
const foldFraction = 16

// patchAttempts bounds how often a patch restarts because a write
// landed while it read the store; after that, current folds instead.
const patchAttempts = 3

// base is one full build: entity ordinals sorted by name, the
// per-entity columns, and the postings over them. Immutable, and
// shared by pointer by every snapshot patched on top of it.
type base struct {
	version uint64
	ids     []sym.ID
	names   []string
	degrees []int32
	nameOf  map[string][]uint32 // name key → ordinals
	idx     postings
	bytes   int
}

// ordinal returns e's ordinal in the base, if e is one of its
// entities.
func (b *base) ordinal(u *fact.Universe, e sym.ID) (uint32, bool) {
	i := sort.SearchStrings(b.names, u.Name(e))
	if i < len(b.ids) && b.ids[i] == e {
		return uint32(i), true
	}
	return 0, false
}

// doc is an entity document re-derived since the base: the entity's
// columns and its distinct (field, token) pairs, or, when gone is set,
// the record that the entity no longer occurs in any stored fact.
type doc struct {
	id      sym.ID
	name    string
	key     string // name key (see the spec in index.go)
	degree  int32
	toks    []fieldTok
	baseOrd int32 // ordinal in the base, -1 if the base lacks the entity
	gone    bool
}

type fieldTok struct {
	field uint8
	tok   string
}

// snapshot is one published state of the index: the base with every
// entity touched since it masked out, plus an overlay of the touched
// entities' re-derived documents, indexed the same way. Overlay entity
// i has ordinal len(base.ids)+i, so base and overlay score into one
// dense ordinal space. Immutable; published whole via atomic.Pointer.
type snapshot struct {
	version  uint64
	base     *base
	docs     map[sym.ID]*doc // every entity touched since the base
	mask     []uint64        // bitset of the base ordinals in docs
	ov       []*doc          // docs still present, name-sorted
	ovIdx    postings        // postings over overlay positions
	ovNameOf map[string][]uint32
}

// newSnapshot publishes base b with the overlay docs at version v.
func newSnapshot(b *base, docs map[sym.ID]*doc, v uint64) *snapshot {
	sn := &snapshot{version: v, base: b, docs: docs}
	if len(docs) == 0 {
		return sn
	}
	sn.mask = make([]uint64, (len(b.ids)+63)/64)
	for _, d := range docs {
		if d.baseOrd >= 0 {
			sn.mask[d.baseOrd/64] |= 1 << (d.baseOrd % 64)
		}
		if !d.gone {
			sn.ov = append(sn.ov, d)
		}
	}
	slices.SortFunc(sn.ov, func(a, b *doc) int { return strings.Compare(a.name, b.name) })
	sn.ovNameOf = make(map[string][]uint32)
	pb := newPostBuilder()
	for i, d := range sn.ov {
		for _, ft := range d.toks {
			pb.add(ft.tok, int(ft.field), uint32(i))
		}
		if d.key != "" {
			sn.ovNameOf[d.key] = append(sn.ovNameOf[d.key], uint32(i))
		}
	}
	pb.finalize(&sn.ovIdx)
	return sn
}

// masked reports whether base ordinal ord is set in mask.
func masked(mask []uint64, ord uint32) bool {
	return mask != nil && mask[ord/64]&(1<<(ord%64)) != 0
}

// indexed reports whether e is one of the snapshot's entities.
func (sn *snapshot) indexed(u *fact.Universe, e sym.ID) bool {
	if d, ok := sn.docs[e]; ok {
		return !d.gone
	}
	_, ok := sn.base.ordinal(u, e)
	return ok
}

// entities is the number of entities the snapshot indexes.
func (sn *snapshot) entities() int {
	n := len(sn.base.ids) + len(sn.ov)
	for _, d := range sn.docs {
		if d.baseOrd >= 0 {
			n--
		}
	}
	return n
}

// advance brings sn up to the store's current version by patching it,
// or returns nil when only a fold will do: the store's history no
// longer reaches sn's version, the overlay would outgrow the fold
// threshold, or writes kept landing while the patch read the store.
//
// A patch must read the store at exactly the version it is tagged
// with: the dirty set of a window of changes is only complete against
// the state at the window's end. So it takes the change list, patches,
// and keeps the result only if the version did not move meanwhile.
func (sn *snapshot) advance(u *fact.Universe, st *store.Store) *snapshot {
	for range patchAttempts {
		v := st.Version()
		chs, ok := st.ChangesSince(sn.version)
		if !ok {
			return nil
		}
		if uint64(len(chs)) != v-sn.version {
			continue // a write landed between the two reads
		}
		next := sn.patch(u, st, chs, v)
		if next == nil || st.Version() == v {
			return next
		}
	}
	return nil
}

// patch returns the snapshot at version v, which chs lead to from sn:
// sn's overlay with the documents of every entity the changes touched
// re-derived from the store. It returns nil when the overlay would
// hold more than 1/foldFraction of the base's entities.
func (sn *snapshot) patch(u *fact.Universe, st *store.Store, chs []store.Change, v uint64) *snapshot {
	b := sn.base
	memo := make(map[sym.ID][]string)
	env := &docEnv{
		u:   u,
		src: storeSource{st},
		toks: func(id sym.ID) []string {
			t, ok := memo[id]
			if !ok {
				t = Tokenize(u.Name(id))
				memo[id] = t
			}
			return t
		},
		comps: make(map[sym.ID][]sym.ID),
	}
	dirty, ok := sn.dirty(env, st, chs)
	if !ok {
		return nil
	}
	n := len(sn.docs)
	for _, e := range dirty {
		if _, ok := sn.docs[e]; !ok {
			n++
		}
	}
	if n*foldFraction > len(b.ids) {
		return nil
	}
	docs := make(map[sym.ID]*doc, n)
	maps.Copy(docs, sn.docs)
	for _, e := range dirty {
		d := &doc{id: e, name: u.Name(e), baseOrd: -1}
		if o, ok := b.ordinal(u, e); ok {
			d.baseOrd = int32(o)
		}
		if !st.HasEntity(e) {
			if d.baseOrd < 0 || defect == keepVanished {
				delete(docs, e)
				continue
			}
			d.gone = true
			docs[e] = d
			continue
		}
		d.key = nameKey(env.toks(e))
		d.degree = env.document(e, func(field int, tok string) {
			d.toks = append(d.toks, fieldTok{uint8(field), tok})
		})
		slices.SortFunc(d.toks, func(a, b fieldTok) int {
			if a.field != b.field {
				return int(a.field) - int(b.field)
			}
			return strings.Compare(a.tok, b.tok)
		})
		d.toks = slices.Compact(d.toks)
		docs[e] = d
	}
	return newSnapshot(b, docs, v)
}

// dirty returns the entities whose documents the changes may have
// changed, each once, or false as soon as they are too many for a
// patch. Per change (s, r, t):
//
//   - s and t: their degree and neighborhood changed;
//   - r, if it became or stopped being an entity (its own document
//     depends only on facts it is the source or target of);
//   - on ≈ or ≺, the synonym components of s and t. The current
//     components suffice: an entity whose component changed over a
//     window of changes is, after it, connected to an endpoint of one;
//   - on ≺ or ∈, every entity whose class walk may pass through s: the
//     sources of ∈/≺ facts up to two hops back from s. Again the
//     current state suffices: where a walk changed, the changed fact
//     nearest the walk's entity starts at a class the entity still
//     reaches through unchanged facts.
func (sn *snapshot) dirty(env *docEnv, st *store.Store, chs []store.Change) ([]sym.ID, bool) {
	u := env.u
	seen := make(map[sym.ID]bool)
	var out []sym.ID
	add := func(e sym.ID) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	walked := make(map[sym.ID]bool)
	for _, c := range chs {
		if len(out)*foldFraction > len(sn.base.ids) {
			return nil, false
		}
		f := c.Fact
		add(f.S)
		if defect != dropTarget {
			add(f.T)
		}
		if !seen[f.R] && sn.indexed(u, f.R) != st.HasEntity(f.R) {
			add(f.R)
		}
		if f.R == u.Syn || f.R == u.Gen {
			for _, m := range env.synonyms(f.S) {
				add(m)
			}
			for _, m := range env.synonyms(f.T) {
				add(m)
			}
		}
		if (f.R == u.Gen || f.R == u.Member) && !walked[f.S] && defect != noReverseWalk {
			walked[f.S] = true
			visited := map[sym.ID]bool{f.S: true}
			frontier := []sym.ID{f.S}
			for hop := 0; hop < 2; hop++ {
				var next []sym.ID
				for _, x := range frontier {
					env.src.in(x, func(g fact.Fact) bool {
						if (g.R == u.Gen || g.R == u.Member) && !visited[g.S] {
							visited[g.S] = true
							next = append(next, g.S)
							add(g.S)
						}
						return true
					})
				}
				frontier = next
			}
		}
	}
	return out, true
}

// plantedDefect names a deliberate bug in the patch path. The
// incremental-index oracle's self-tests plant one at a time and
// require the oracle to catch it; production code runs with none.
type plantedDefect int

const (
	noDefect      plantedDefect = iota
	dropTarget                  // t left out of a change's dirty set
	noReverseWalk               // no taxonomy walk back from s
	keepVanished                // a vanished base entity left unmasked
)

var defect plantedDefect
