package rules_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	lsdb "repro"
	"repro/internal/factfile"
	"repro/internal/gen"
	"repro/internal/rules"
)

// provWorld is a database the forward-provenance golden covers.
type provWorld struct {
	name string
	db   *lsdb.Database
}

// provWorlds are the paper's employment world with one user inference
// rule whose head several bindings reach, and three generated worlds
// large enough for a full build to run its rounds on several workers.
func provWorlds(t *testing.T) []provWorld {
	t.Helper()
	return []provWorld{
		{"employment", employmentPays(t)},
		{"gen.Large seed 1", gen.Generate(1, gen.Large()).Build()},
		{"gen.Large seed 2", gen.Generate(2, gen.Large()).Build()},
		{"gen.Medium seed 2", gen.Generate(2, gen.Medium()).Build()},
	}
}

// employmentPays is the paper's employment world with the user rule
// pays, whose head several bindings reach.
func employmentPays(t *testing.T) *lsdb.Database {
	t.Helper()
	db := lsdb.New()
	if _, err := factfile.LoadFile(db, filepath.Join("..", "..", "testdata", "employment.facts")); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRule("pays", "(?x, WORKS-FOR, ?d) & (?x, EARNS, ?s) => (?d, PAYS, ?x)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// renderProvenance lists db's closure, sorted, with each fact's
// canonical derivation: "stored", or the rule and its premises.
func renderProvenance(db *lsdb.Database) string {
	e := db.Engine()
	u := db.Universe()
	lines := make([]string, 0, e.ClosureSize())
	for _, f := range e.Closure().Facts() {
		d := e.Derive(f)
		line := u.FormatFact(f) + " [" + d.Rule + "]"
		for _, p := range d.Premises {
			line += " " + u.FormatFact(p.Fact)
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestClosureProvenanceGolden pins the forward closure and its
// canonical provenance: which rule, from which premises, Derive names
// for each fact — the least derivation of the round that first obtains
// it. Every world is built on one worker and on four, which must
// agree. Regenerate with -update only for a deliberate change to the
// closure or to the canonical choice.
func TestClosureProvenanceGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range provWorlds(t) {
		var one string
		for _, workers := range []int{1, 4} {
			e := w.db.Engine()
			e.SetWorkers(workers)
			e.Invalidate()
			got := renderProvenance(w.db)
			if workers == 1 {
				one = got
				fmt.Fprintf(&b, "# %s: %d stored, %d in the closure\n%s", w.name, w.db.Len(), w.db.ClosureLen(), got)
			} else if got != one {
				t.Errorf("%s: provenance on %d workers differs from one worker", w.name, workers)
			}
		}
	}

	path := filepath.Join("testdata", "closure_prov.golden")
	if *rules.UpdateGolden {
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
				t.Fatalf("closure provenance differs at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("closure provenance differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
