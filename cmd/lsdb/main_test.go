package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/dataset"

	lsdb "repro"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestReplFactAndQuery(t *testing.T) {
	st := newState(lsdb.New())
	out := capture(t, func() {
		if err := st.run("fact (JOHN, in, EMPLOYEE)"); err != nil {
			t.Error(err)
		}
		if err := st.run("fact (EMPLOYEE, EARNS, SALARY)"); err != nil {
			t.Error(err)
		}
		if err := st.run("q (JOHN, EARNS, ?what)"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "SALARY") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplRetract(t *testing.T) {
	db := lsdb.New()
	st := newState(db)
	db.MustAssert("A", "R", "B")
	out := capture(t, func() {
		if err := st.run("retract (A, R, B)"); err != nil {
			t.Error(err)
		}
		if err := st.run("retract (A, R, B)"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "retracted") || !strings.Contains(out, "not stored") {
		t.Errorf("output:\n%s", out)
	}
}

// TestReplRetractReportsDurabilityFailure: a retract whose log write
// fails is an error, as a fact's is, never "retracted".
func TestReplRetractReportsDurabilityFailure(t *testing.T) {
	dir := t.TempDir()
	attach := func(name string, budget int64) (*lsdb.Database, *check.CrashFS) {
		db := lsdb.New()
		db.MustAssert("A", "R", "B")
		cfs := check.NewCrashFS(budget)
		db.Store().SetFS(cfs)
		if _, err := db.Store().AttachLog(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		return db, cfs
	}
	// The crash budget is exactly what attaching costs, so the
	// retraction's log record is the first write to fail.
	_, probe := attach("probe.log", 1<<62)
	db, _ := attach("crash.log", probe.Written())
	st := newState(db)
	var err error
	out := capture(t, func() { err = st.run("retract (A, R, B)") })
	if err == nil || strings.Contains(out, "retracted") {
		t.Fatalf("retract with a failing log: err %v, output %q", err, out)
	}
	if logErr := db.LogStats().Err; logErr == "" {
		t.Fatal("the log recorded no error")
	}
}

func TestReplNavAndBetween(t *testing.T) {
	db := dataset.Music()
	st := newState(db)
	out := capture(t, func() {
		if err := st.run("nav JOHN"); err != nil {
			t.Error(err)
		}
		if err := st.run("between LEOPOLD MOZART"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "JOHN**") || !strings.Contains(out, "LEOPOLD+MOZART") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplProbe(t *testing.T) {
	db := dataset.Opera()
	st := newState(db)
	out := capture(t, func() {
		if err := st.run("probe (STUDENT, LOVE, ?z) & (?z, COSTS, FREE)"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "FRESHMAN instead of STUDENT") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplRulesAndExplain(t *testing.T) {
	st := newState(lsdb.New())
	out := capture(t, func() {
		if err := st.run("rule gp: (?x, PARENT, ?y) & (?y, PARENT, ?z) => (?x, GRANDPARENT, ?z)"); err != nil {
			t.Error(err)
		}
		st.run("fact (A, PARENT, B)")
		st.run("fact (B, PARENT, C)")
		if err := st.run("explain (A, GRANDPARENT, C)"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "[gp]") || !strings.Contains(out, "[stored]") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplDefine(t *testing.T) {
	db := lsdb.New()
	st := newState(db)
	db.MustAssert("B1", "in", "BOOK")
	db.MustAssert("B1", "AUTHOR", "JOHN")
	out := capture(t, func() {
		if err := st.run("define author-of(?b, ?p) := (?b, in, BOOK) & (?b, AUTHOR, ?p)"); err != nil {
			t.Error(err)
		}
		if err := st.run("q author-of(?x, JOHN)"); err != nil {
			t.Error(err)
		}
		if err := st.run("defs"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "B1") || !strings.Contains(out, "author-of") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplIncludeExcludeLimit(t *testing.T) {
	db := dataset.Music()
	st := newState(db)
	capture(t, func() {
		if err := st.run("exclude inversion"); err != nil {
			t.Error(err)
		}
		if err := st.run("include inversion"); err != nil {
			t.Error(err)
		}
		if err := st.run("limit 1"); err != nil {
			t.Error(err)
		}
		if err := st.run("limit inf"); err != nil {
			t.Error(err)
		}
		if err := st.run("limit 3"); err != nil {
			t.Error(err)
		}
	})
	if err := st.run("limit banana"); err == nil {
		t.Error("bad limit accepted")
	}
	if err := st.run("include no-such-rule"); err == nil {
		t.Error("bad rule name accepted")
	}
}

func TestReplCheck(t *testing.T) {
	db := lsdb.New()
	st := newState(db)
	db.MustAssert("LOVES", "contra", "HATES")
	db.MustAssert("A", "LOVES", "B")
	db.MustAssert("A", "HATES", "B")
	out := capture(t, func() {
		if err := st.run("check"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "contradicts") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplLoadDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.facts")
	db := lsdb.New()
	st := newState(db)
	db.MustAssert("A", "R", "B")
	capture(t, func() {
		if err := st.run("dump " + path); err != nil {
			t.Error(err)
		}
	})
	db2 := lsdb.New()
	st2 := newState(db2)
	capture(t, func() {
		if err := st2.run("load " + path); err != nil {
			t.Error(err)
		}
	})
	if !db2.HasStored("A", "R", "B") {
		t.Error("load/dump round trip failed")
	}
}

func TestReplErrors(t *testing.T) {
	st := newState(lsdb.New())
	for _, bad := range []string{
		"nosuchcommand",
		"fact (?x, R, B)",
		"retract (A, R)",
		"between ONLY-ONE",
		"relation X Y",
		"rule missing-colon-and-arrow",
		"q (((",
		"undefine nope",
		"unrule nope",
	} {
		if err := st.run(bad); err == nil {
			t.Errorf("run(%q) succeeded", bad)
		}
	}
}

func TestReplStatsEntitiesRels(t *testing.T) {
	db := dataset.Music()
	st := newState(db)
	out := capture(t, func() {
		st.run("stats")
		st.run("rels")
		st.run("entities")
		st.run("try MOZART")
		st.run("help")
	})
	for _, want := range []string{"stored facts", "LIKES", "MOZART", "commands:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestReplSessionCommands(t *testing.T) {
	db := dataset.Music()
	st := newState(db)
	out := capture(t, func() {
		st.run("go JOHN")
		st.run("go PC#9-WAM")
		st.run("where")
		st.run("suggest")
		st.run("back")
		st.run("dot")
	})
	for _, want := range []string{"JOHN > PC#9-WAM", "digraph browse", "JOHN**"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Backing past the start is graceful.
	out = capture(t, func() {
		st.run("back")
		st.run("back")
		st.run("back")
	})
	if !strings.Contains(out, "start of trail") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReplFind(t *testing.T) {
	st := newState(dataset.Music())
	out := capture(t, func() {
		st.run("find moz")
	})
	if !strings.Contains(out, "MOZART") {
		t.Errorf("output:\n%s", out)
	}
	if err := st.run("find"); err == nil {
		t.Error("find without argument accepted")
	}
}

func TestReplImport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "emp.csv")
	os.WriteFile(path, []byte("NAME,DEPT\nJOHN,SHIPPING\n"), 0o644)
	db := lsdb.New()
	st := newState(db)
	out := capture(t, func() {
		if err := st.run("import " + path + " NAME EMPLOYEE"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "imported 2 facts") {
		t.Errorf("output:\n%s", out)
	}
	if !db.HasStored("JOHN", "DEPT", "SHIPPING") {
		t.Error("imported fact missing")
	}
	if err := st.run("import"); err == nil {
		t.Error("import without args accepted")
	}
}
