package rules

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/sym"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestBackwardSubgoalTrafficGolden pins the subgoal traffic of the
// backward interpreter: which patterns it asks for, in which order, at
// which remaining depth, with which cache disposition and how many
// facts each produced. The subgoal table's occupancy, CacheStats,
// CacheDepProfile and the trace-vs-counters oracle all follow from this
// sequence, so a change to the rule table that keeps it byte-identical
// cannot move any of them. Regenerate with -update only for a
// deliberate change to what the matcher asks for.
func TestBackwardSubgoalTrafficGolden(t *testing.T) {
	u, s, e := newEngine()
	ins(u, s,
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"MARY", "in", "MANAGER"},
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"EMPLOYEE", "isa", "PERSON"},
		[3]string{"EMPLOYEE", "EARNS", "SALARY"},
		[3]string{"EMPLOYEE", "WORKS-FOR", "DEPARTMENT"},
		[3]string{"SALARY", "isa", "INCOME"},
		[3]string{"SHIPPING", "in", "DEPARTMENT"},
		[3]string{"JOHN", "WORKS-FOR", "SHIPPING"},
		[3]string{"WORKS-FOR", "isa", "AFFILIATED-WITH"},
		[3]string{"WORKS-FOR", "inv", "EMPLOYS"},
		[3]string{"STAFF", "syn", "EMPLOYEE"},
		[3]string{"MARY", "MANAGES", "SHIPPING"})

	id := func(name string) sym.ID {
		if name == "*" {
			return sym.None
		}
		return u.Entity(name)
	}
	var b strings.Builder
	for _, q := range [][3]string{
		{"JOHN", "*", "*"},
		{"*", "*", "SHIPPING"},
		{"JOHN", "EARNS", "INCOME"},
	} {
		// Each query starts from an empty subgoal table, so hit and miss
		// dispositions depend on this query's traffic alone.
		e.SetSubgoalCache(false)
		e.SetSubgoalCache(true)
		tr := obs.NewTrace()
		e.MatchBoundedTrace(id(q[0]), id(q[1]), id(q[2]), 2, tr, func(fact.Fact) bool { return true })
		fmt.Fprintf(&b, "query (%s, %s, %s) depth 2\n", q[0], q[1], q[2])
		var walk func([]*obs.TraceEvent, int)
		walk = func(evs []*obs.TraceEvent, indent int) {
			for _, ev := range evs {
				fmt.Fprintf(&b, "%s%s d=%d %s facts=%d\n",
					strings.Repeat("  ", indent), ev.Pattern, ev.Depth, ev.Disposition, ev.Facts)
				walk(ev.Children, indent+1)
			}
		}
		walk(tr.Done(), 1)
		if n := tr.Dropped(); n != 0 {
			t.Fatalf("trace dropped %d spans; shrink the world", n)
		}
	}

	path := filepath.Join("testdata", "backward_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("subgoal traffic differs at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("subgoal traffic differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
