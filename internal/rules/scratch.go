package rules

import (
	"sync"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Pooled scratch memory for the hot evaluation paths. A cold bounded
// query at depth 6 evaluates thousands of subgoals; before pooling,
// each one allocated a candidate set map and a result slice, and the
// per-query context (memo, cycle guard, dedup set) was rebuilt from
// scratch every call — ~42 MB and ~41k allocations per cold query on
// the E7 benchmark world. The pools below recycle all of it: candidate
// collectors, per-call result arenas, dedup sets, and the bounded
// contexts themselves.

// maxRetainedCap bounds the capacity of pooled buffers: the occasional
// pathological subgoal must not pin its worst-case footprint forever.
const maxRetainedCap = 1 << 16

// factArena hands out subgoal result slices for cache-off bounded
// calls. Results live in the per-call memo and die with the call, so
// they are carved out of reusable chunks instead of individual heap
// allocations; reset recycles every chunk for the next query.
// Shared-table results are NOT arena-allocated — they outlive the call
// and get exact heap copies.
type factArena struct {
	cur  []fact.Fact   // chunk being filled (len = cursor)
	used [][]fact.Fact // filled chunks awaiting reset
	free [][]fact.Fact // empty chunks available for reuse
}

const (
	arenaChunk     = 4096
	maxArenaChunks = 64
)

// alloc returns a zeroed-length-n slice carved from the arena, with
// capacity clipped so the caller cannot grow into a neighbor.
func (a *factArena) alloc(n int) []fact.Fact {
	if cap(a.cur)-len(a.cur) < n {
		a.grow(n)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	return a.cur[lo : lo+n : lo+n]
}

func (a *factArena) grow(n int) {
	if a.cur != nil {
		a.used = append(a.used, a.cur)
	}
	want := arenaChunk
	if n > want {
		want = n
	}
	if k := len(a.free); k > 0 && cap(a.free[k-1]) >= want {
		a.cur = a.free[k-1]
		a.free = a.free[:k-1]
		return
	}
	a.cur = make([]fact.Fact, 0, want)
}

func (a *factArena) reset() {
	for _, c := range a.used {
		a.free = append(a.free, c[:0])
	}
	a.used = a.used[:0]
	if a.cur != nil {
		a.free = append(a.free, a.cur[:0])
		a.cur = nil
	}
	if len(a.free) > maxArenaChunks {
		a.free = a.free[:maxArenaChunks]
	}
}

// collector accumulates the candidate facts of one enum subgoal. It
// replaces an `add` closure: closures leaked into the recursive join
// machinery are heap-allocated per subgoal (and force their captured
// buffer variable into its own heap cell), while a pooled pointer
// threaded through goal costs nothing per call.
type collector struct {
	s, r, t sym.ID
	scanned uint64 // base+virtual candidates enumerated (flushed to bounded)
	buf     []fact.Fact

	// emit is add in the goal interpreter's callback form, made once
	// per pooled collector: the callback escapes into user-rule joins,
	// so one made per subgoal would be a heap allocation per subgoal.
	emit func(hit) bool
}

// add records f if it matches the subgoal pattern.
func (c *collector) add(f fact.Fact) {
	if match3(f, c.s, c.r, c.t) {
		c.buf = append(c.buf, f)
	}
}

// scan is add in store.Match callback form, counting scanned facts.
func (c *collector) scan(f fact.Fact) bool {
	c.scanned++
	c.add(f)
	return true
}

var collectorPool = sync.Pool{New: func() any {
	c := new(collector)
	c.emit = func(h hit) bool {
		c.add(h.head)
		return true
	}
	return c
}}

func getCollector(s, r, t sym.ID) *collector {
	c := collectorPool.Get().(*collector)
	c.s, c.r, c.t = s, r, t
	c.scanned = 0
	return c
}

func putCollector(c *collector) {
	if cap(c.buf) > maxRetainedCap {
		c.buf = nil
	} else {
		c.buf = c.buf[:0]
	}
	collectorPool.Put(c)
}

var seenPool = sync.Pool{New: func() any { return make(map[fact.Fact]struct{}, 256) }}

func getSeen() map[fact.Fact]struct{} { return seenPool.Get().(map[fact.Fact]struct{}) }

func putSeen(m map[fact.Fact]struct{}) {
	if len(m) > maxRetainedCap {
		return
	}
	clear(m)
	seenPool.Put(m)
}

// maxRetainedMemo bounds the per-call memo map kept by a pooled
// bounded context; a larger one is dropped and rebuilt small. clear
// costs the map's capacity, not its length, and a map never shrinks:
// kept, the memo of one cold call that opened tens of thousands of
// subgoals would make every warm call after it (memo size ~1) pay to
// clear that capacity.
const maxRetainedMemo = 1 << 10

var boundedPool = sync.Pool{New: func() any {
	return &bounded{
		memo:  make(map[bkey]subgoalEntry, 64),
		open:  make(map[bkey]bool, 16),
		indiv: make(map[sym.ID]bool, 16),
	}
}}

func getBounded(e *Engine, cfg *ruleset, tr *obs.Trace) *bounded {
	b := boundedPool.Get().(*bounded)
	b.e = e
	b.cfg = cfg
	b.base = e.base
	b.shared = e.sg.acquire(e.base, e.base.Version(), cfg.ver)
	b.tr = tr
	return b
}

func putBounded(b *bounded) {
	b.reset()
	boundedPool.Put(b)
}

// reset empties the context for its next call.
func (b *bounded) reset() {
	if len(b.memo) > maxRetainedMemo {
		b.memo = make(map[bkey]subgoalEntry, 64)
	} else {
		clear(b.memo)
	}
	clear(b.open)
	if b.tainted != nil {
		clear(b.tainted)
	}
	clear(b.indiv)
	b.arena.reset()
	b.e, b.cfg, b.base, b.shared, b.tr = nil, nil, nil, nil, nil
	b.hits, b.misses, b.openHits, b.scanned = 0, 0, 0, 0
	b.curDeps = 0
}
