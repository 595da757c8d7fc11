package rules

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/fact"
	"repro/internal/sym"
)

// boundedSet collects MatchBounded results into a sorted, comparable form.
func boundedSet(e *Engine, s, r, t sym.ID, depth int) []fact.Fact {
	var out []fact.Fact
	e.MatchBounded(s, r, t, depth, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.T < b.T
	})
	return out
}

func sameFacts(a, b []fact.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Warm results must equal cold results, and the second identical
// query must be answered from the shared table.
func TestSubgoalCacheWarmEqualsCold(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "isa", "B"},
		[3]string{"B", "isa", "C"},
		[3]string{"C", "HAS", "X"},
		[3]string{"JOHN", "in", "A"},
		[3]string{"HAS", "inv", "OWNED-BY"})

	cold := boundedSet(e, sym.None, sym.None, sym.None, 4)
	st0 := e.CacheStats()
	if st0.Misses == 0 || st0.Entries == 0 {
		t.Fatalf("first query did not populate the cache: %+v", st0)
	}
	warm := boundedSet(e, sym.None, sym.None, sym.None, 4)
	st1 := e.CacheStats()
	if st1.Hits == 0 {
		t.Fatalf("second identical query did not hit the cache: %+v", st1)
	}
	if !sameFacts(cold, warm) {
		t.Fatalf("warm result differs from cold: %d vs %d facts", len(warm), len(cold))
	}

	e.SetSubgoalCache(false)
	off := boundedSet(e, sym.None, sym.None, sym.None, 4)
	if !sameFacts(cold, off) {
		t.Fatalf("cache-disabled result differs: %d vs %d facts", len(off), len(cold))
	}
	if got := e.CacheStats(); got.Enabled {
		t.Fatal("CacheStats.Enabled true after SetSubgoalCache(false)")
	}
	e.SetSubgoalCache(true)
}

// A base-store write between two queries must evict the dependent
// entries: the second query sees the new fact and its inferences. The
// table itself survives the write — only entries whose dependency
// summary intersects the changed fact classes are discarded.
func TestSubgoalCacheInvalidatesOnWrite(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	target := u.NewFact("BOSS", "EARNS", "SALARY")
	if e.HasBounded(target, 2) {
		t.Fatal("fact derivable before its premise exists")
	}
	ins(u, s, [3]string{"BOSS", "isa", "MANAGER"})
	if !e.HasBounded(target, 2) {
		t.Fatal("stale cache: inference missing after assert")
	}
	if st := e.CacheStats(); st.Evictions == 0 {
		t.Fatalf("write did not evict any dependent entry: %+v", st)
	}

	// Retraction evicts the same way.
	s.Delete(u.NewFact("BOSS", "isa", "MANAGER"))
	if e.HasBounded(target, 2) {
		t.Fatal("stale cache: inference survived retraction")
	}
}

// A write to a relation class no cached subgoal depends on must leave
// the warm entries live: the repeat query is answered entirely from
// the cache even though the base version moved.
func TestSubgoalCacheSurvivesUnrelatedWrite(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	target := u.NewFact("MANAGER", "EARNS", "SALARY")
	warmup := func() {
		if !e.HasBounded(target, 2) {
			t.Fatal("inherited fact not derivable")
		}
	}
	warmup()
	st0 := e.CacheStats()
	if st0.Entries == 0 {
		t.Fatalf("warm-up cached nothing: %+v", st0)
	}

	// The cached subgoals depend on the relation classes they read —
	// except the domain-dependent ones (free-relation or wildcard-Gen
	// enumerations), which correctly depend on everything. Writing
	// facts in an unrelated relation must evict only that wildcard
	// minority: probe for a relation whose dependency bit collides
	// with no narrow mask in the table (deterministic: interning order
	// fixes the IDs), and require the repeat query to be answered
	// mostly warm.
	var used uint64
	wildcards := 0
	tb := e.sg.table.Load()
	if tb == nil {
		t.Fatal("no shared table after warm-up")
	}
	tb.entries.Range(func(_, v any) bool {
		if d := v.(subgoalEntry).deps; d == allDeps {
			wildcards++
		} else {
			used |= d
		}
		return true
	})
	if wildcards*2 >= st0.Entries {
		t.Fatalf("wildcard dependency masks dominate the table: %d of %d", wildcards, st0.Entries)
	}
	churn := sym.None
	for i := 0; i < 128; i++ {
		r := u.Entity(fmt.Sprintf("CHURN-REL-%d", i))
		if depBits(r)&used == 0 {
			churn = r
			break
		}
	}
	if churn == sym.None {
		t.Fatal("no collision-free churn relation found in 128 probes")
	}
	s.Insert(fact.Fact{S: u.Entity("W1"), R: churn, T: u.Entity("W2")})

	warmup()
	st1 := e.CacheStats()
	if d := st1.Evictions - st0.Evictions; d > uint64(wildcards) {
		t.Fatalf("unrelated write evicted %d entries, only %d wildcard-dependent: %+v -> %+v",
			d, wildcards, st0, st1)
	}
	dh, dm := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	if dh == 0 {
		t.Fatalf("repeat query not served from cache at all: %+v -> %+v", st0, st1)
	}
	if dh < dm {
		t.Fatalf("repeat query after unrelated write ran mostly cold: %d hits vs %d misses", dh, dm)
	}
}

// No-op writes (duplicate assert, retract of an absent fact) must
// leave the warm cache fully intact: the store doesn't move its
// version, so the table reconciles to zero changed classes and every
// repeat lookup hits.
func TestSubgoalCacheSurvivesNoOpWrites(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"})
	target := u.NewFact("MANAGER", "EARNS", "SALARY")
	if !e.HasBounded(target, 2) {
		t.Fatal("inherited fact not derivable")
	}
	st0 := e.CacheStats()

	s.Insert(u.NewFact("MANAGER", "isa", "EMPLOYEE")) // duplicate
	s.Delete(u.NewFact("NOBODY", "EARNS", "SALARY"))  // absent

	if !e.HasBounded(target, 2) {
		t.Fatal("inference lost after no-op writes")
	}
	st1 := e.CacheStats()
	if st1.Misses != st0.Misses || st1.Evictions != st0.Evictions {
		t.Fatalf("no-op writes disturbed the cache: %+v -> %+v", st0, st1)
	}
	if st1.Hits <= st0.Hits {
		t.Fatalf("repeat query not served warm after no-op writes: %+v -> %+v", st0, st1)
	}
}

// Re-adding an identical user rule is a no-op: the config version must
// not move, so the warm subgoal cache and the published closure both
// survive.
func TestAddRuleIdenticalIsNoOp(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "isa", "B"},
		[3]string{"B", "HAS", "X"})
	rule, err := ParseRule(u, "owns", Inference, "(?x, HAS, ?y) => (?x, OWNS, ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	target := u.NewFact("A", "OWNS", "X")
	if !e.HasBounded(target, 2) {
		t.Fatal("user-rule inference missing")
	}
	e.ClosureSize() // publish a snapshot too
	cv := e.cfgVersion.Load()
	st0 := e.CacheStats()

	if err := e.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if got := e.cfgVersion.Load(); got != cv {
		t.Fatalf("identical AddRule moved the config version: %d -> %d", cv, got)
	}
	if !e.Warm() {
		t.Fatal("identical AddRule discarded the published closure")
	}
	if !e.HasBounded(target, 2) {
		t.Fatal("user-rule inference missing after identical re-add")
	}
	st1 := e.CacheStats()
	if st1.Misses != st0.Misses {
		t.Fatalf("identical AddRule evicted cache entries: %+v -> %+v", st0, st1)
	}

	// A genuinely different body must still invalidate.
	rule2, err := ParseRule(u, "owns", Inference, "(?x, HAS, ?y) => (?y, OWNED-BY, ?x)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(rule2); err != nil {
		t.Fatal(err)
	}
	if e.cfgVersion.Load() == cv {
		t.Fatal("replacing a rule with a different one did not move the config version")
	}
	if e.HasBounded(target, 2) {
		t.Fatal("stale inference from the replaced rule")
	}
}

// Rule toggles and user-rule changes move the ruleset version.
func TestSubgoalCacheInvalidatesOnRuleChange(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "isa", "B"},
		[3]string{"B", "HAS", "X"})
	target := u.NewFact("A", "HAS", "X")
	if !e.HasBounded(target, 1) {
		t.Fatal("gen-source inference missing")
	}
	e.Exclude(GenSource)
	if e.HasBounded(target, 1) {
		t.Fatal("stale cache: inference survived rule exclusion")
	}
	e.Include(GenSource)
	if !e.HasBounded(target, 1) {
		t.Fatal("stale cache: inference missing after rule re-inclusion")
	}

	rule, err := ParseRule(u, "owns", Inference, "(?x, HAS, ?y) => (?x, OWNS, ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if !e.HasBounded(u.NewFact("A", "OWNS", "X"), 2) {
		t.Fatal("stale cache: user-rule inference missing after AddRule")
	}
	e.RemoveRule("owns")
	if e.HasBounded(u.NewFact("A", "OWNS", "X"), 2) {
		t.Fatal("stale cache: user-rule inference survived RemoveRule")
	}
}

// Invalidate covers out-of-band changes version labels cannot see.
func TestSubgoalCacheInvalidateEpoch(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s, [3]string{"A", "isa", "B"})
	boundedSet(e, sym.None, sym.None, sym.None, 2)
	before := e.CacheStats()
	if before.Entries == 0 {
		t.Fatal("no entries cached")
	}
	e.Invalidate()
	boundedSet(e, sym.None, sym.None, sym.None, 2)
	after := e.CacheStats()
	if after.Invalidations <= before.Invalidations {
		t.Fatalf("Invalidate did not discard the table: %+v -> %+v", before, after)
	}
}

// Concurrent bounded queries interleaved with writes and toggles must
// stay race-free (run under -race) and every completed query must be
// internally consistent. Correctness against an uncached engine is
// the differential oracle's job (internal/check).
func TestSubgoalCacheConcurrentChurn(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "isa", "B"},
		[3]string{"B", "isa", "C"},
		[3]string{"C", "HAS", "X"},
		[3]string{"HAS", "inv", "OWNED-BY"})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				boundedSet(e, sym.None, sym.None, sym.None, 3)
				_ = e.CacheStats()
				if w == 0 {
					ins(u, s, [3]string{fmt.Sprintf("N%d", i), "in", "B"})
				}
				if w == 1 && i%3 == 0 {
					e.Exclude(GenTransitive)
					e.Include(GenTransitive)
				}
				if i >= 25 {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
}

// The bounded matcher view answers query-evaluator calls through the
// same cache.
func TestBoundedMatcherSharesCache(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"A", "isa", "B"},
		[3]string{"B", "HAS", "X"})
	m := e.Bounded(2)
	a := u.Entity("A")
	var got []fact.Fact
	m.Match(a, sym.None, sym.None, func(f fact.Fact) bool {
		got = append(got, f)
		return true
	})
	if len(got) == 0 {
		t.Fatal("bounded matcher found nothing")
	}
	if st := e.CacheStats(); st.Entries == 0 {
		t.Fatal("bounded matcher bypassed the subgoal cache")
	}
	if n, exact := m.EstimateCount(a, sym.None, sym.None); n != 1 || exact {
		t.Fatalf("EstimateCount = %d exact %v, want 1 (one stored fact about A), inexact", n, exact)
	}
	// A stored count of 0 is not proof of emptiness: inference answers it.
	has := u.Entity("HAS")
	if n, exact := m.EstimateCount(a, has, sym.None); n != 0 || exact {
		t.Fatalf("EstimateCount(A, HAS, ?) = %d exact %v, want an inexact 0", n, exact)
	}
	if !e.HasBounded(u.NewFact("A", "HAS", "X"), 2) {
		t.Fatal("(A, HAS, X) not derivable at depth 2")
	}
}
