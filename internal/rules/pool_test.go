package rules_test

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/rules"
	"repro/internal/sym"
)

// TestPooledMemoBounded: a pooled bounded context drops a memo that
// grew past the bound instead of clearing it for the next call, since
// clearing costs the map's capacity and the next call is most likely
// a warm one that memoizes a single entry. A small memo is kept.
func TestPooledMemoBounded(t *testing.T) {
	db := gen.Generate(1, gen.Large()).Build()
	e, u := db.Engine(), db.Universe()

	n, kept := e.ColdCallMemo(sym.None, sym.None, sym.None, 3)
	if n <= rules.MaxRetainedMemo {
		t.Fatalf("the cold call memoized %d subgoals, want more than %d", n, rules.MaxRetainedMemo)
	}
	if kept {
		t.Errorf("the context kept a %d-entry memo past the bound of %d", n, rules.MaxRetainedMemo)
	}
	if n, kept := e.ColdCallMemo(u.Entity("I1"), sym.None, sym.None, 2); n > rules.MaxRetainedMemo || !kept {
		t.Errorf("a %d-entry memo: kept = %v, want a small memo kept", n, kept)
	}
}

// BenchmarkMatchBoundedWarmAfterCold times a warm navigation call
// after a cold call that memoized more subgoals than a pooled context
// keeps: the warm call must not pay for the cold call's memo.
func BenchmarkMatchBoundedWarmAfterCold(b *testing.B) {
	db := gen.Generate(1, gen.Large()).Build()
	e, u := db.Engine(), db.Universe()
	all := func(fact.Fact) bool { return true }
	i1 := u.Entity("I1")
	e.MatchBounded(i1, sym.None, sym.None, 2, all)
	e.MatchBounded(sym.None, sym.None, sym.None, 3, all)
	b.ResetTimer()
	for range b.N {
		warmComplete = e.MatchBounded(i1, sym.None, sym.None, 2, all)
	}
}

// warmComplete keeps the benchmarked call from being optimized away.
var warmComplete bool
