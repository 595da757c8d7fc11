package rules_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/rules"
	"repro/internal/sym"
)

// TestBoundedAnswersGolden pins what MatchBounded answers for the
// navigation templates (e,*,*) and (*,*,e) and their one-relationship
// forms (e,r,*) and (*,r,e), at depths 1, 2 and 3, for a seeded sample
// of entities and relationships of each provenance world. The order in
// which the backward interpreter joins a rule's premises decides which
// subgoals it asks for, never which facts it finds, so a change to the
// join order must keep this file byte-identical. ClosureVsBounded only
// checks the fixpoint depth; this is what pins the depths below it.
func TestBoundedAnswersGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range provWorlds(t) {
		e, u := w.db.Engine(), w.db.Universe()
		rng := rand.New(rand.NewSource(1))
		var stored []fact.Fact
		for _, f := range e.Base().Facts() {
			if !u.Special(f.S) && !u.Special(f.T) {
				stored = append(stored, f)
			}
		}
		slices.SortFunc(stored, fact.Compare)
		var rels []sym.ID
		for _, rs := range e.Base().Relationships() {
			rels = append(rels, rs.Rel)
		}
		slices.Sort(rels)

		fmt.Fprintf(&b, "# %s\n", w.name)
		name := func(id sym.ID) string {
			if id == sym.None {
				return "*"
			}
			return u.Name(id)
		}
		// Each sampled stored fact f gives (f.S,*,*) and (*,*,f.T), the
		// same with f's relationship in place, and with a random one.
		for range 6 {
			f := stored[rng.Intn(len(stored))]
			r := rels[rng.Intn(len(rels))]
			pats := [][3]sym.ID{
				{f.S, sym.None, sym.None}, {sym.None, sym.None, f.T},
				{f.S, f.R, sym.None}, {sym.None, f.R, f.T},
				{f.S, r, sym.None}, {sym.None, r, f.T},
			}
			for _, p := range pats {
				for d := 1; d <= 3; d++ {
					var got []string
					e.MatchBounded(p[0], p[1], p[2], d, func(f fact.Fact) bool {
						got = append(got, u.FormatFact(f))
						return true
					})
					slices.Sort(got)
					fmt.Fprintf(&b, "(%s, %s, %s) d=%d: %d\n", name(p[0]), name(p[1]), name(p[2]), d, len(got))
					for _, f := range got {
						fmt.Fprintf(&b, "  %s\n", f)
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "bounded_answers.golden")
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
				t.Fatalf("bounded answers differ at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bounded answers differ in length: got %d lines, want %d", len(gl), len(wl))
	}
}
