package lsdb_test

import (
	"path/filepath"
	"strings"
	"testing"

	lsdb "repro"
)

func TestStrictModeRejectsContradiction(t *testing.T) {
	db, err := lsdb.Open(lsdb.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	db.MustAssert("LOVES", "contra", "HATES")
	db.MustAssert("JOHN", "LOVES", "MARY")
	err = db.Assert("JOHN", "HATES", "MARY")
	if err == nil {
		t.Fatal("strict mode accepted a contradiction")
	}
	if !strings.Contains(err.Error(), "integrity violation") {
		t.Errorf("err = %v", err)
	}
	if db.HasStored("JOHN", "HATES", "MARY") {
		t.Error("rejected fact was stored anyway")
	}
	// Harmless facts still insert.
	if err := db.Assert("JOHN", "LOVES", "FELIX"); err != nil {
		t.Errorf("harmless fact rejected: %v", err)
	}
}

func TestLooseModeAllowsThenChecks(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("LOVES", "contra", "HATES")
	db.MustAssert("JOHN", "LOVES", "MARY")
	db.MustAssert("JOHN", "HATES", "MARY")
	if db.Consistent() {
		t.Error("Check missed the contradiction")
	}
	vs := db.Check()
	if len(vs) != 1 {
		t.Errorf("violations = %d", len(vs))
	}
}

func TestRetract(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("A", "R", "B")
	if !db.Retract("A", "R", "B") {
		t.Fatal("Retract returned false")
	}
	if db.Retract("A", "R", "B") {
		t.Error("second Retract returned true")
	}
	if db.Has("A", "R", "B") {
		t.Error("retracted fact still in closure")
	}
}

func TestRetractRemovesDerived(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("JOHN", "in", "EMPLOYEE")
	db.MustAssert("EMPLOYEE", "EARNS", "SALARY")
	if !db.Has("JOHN", "EARNS", "SALARY") {
		t.Fatal("setup failed")
	}
	db.Retract("JOHN", "in", "EMPLOYEE")
	if db.Has("JOHN", "EARNS", "SALARY") {
		t.Error("derived fact survived premise retraction")
	}
}

func TestDurability(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "db.log")

	db, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	db.MustAssert("JOHN", "in", "EMPLOYEE")
	db.MustAssert("EMPLOYEE", "EARNS", "SALARY")
	db.Retract("EMPLOYEE", "EARNS", "SALARY")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.HasStored("JOHN", "in", "EMPLOYEE") {
		t.Error("fact lost across restart")
	}
	if db2.HasStored("EMPLOYEE", "EARNS", "SALARY") {
		t.Error("retracted fact recovered")
	}
}

func TestSnapshotAPI(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "db.snap")
	db := lsdb.New()
	db.MustAssert("A", "R", "B")
	if err := db.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	db2 := lsdb.New()
	if err := db2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !db2.HasStored("A", "R", "B") {
		t.Error("snapshot round trip failed")
	}
}

func TestMergeDatabases(t *testing.T) {
	// §1: unified access to multiple databases without schema
	// mediation — two fact heaps merge by entity name.
	people := lsdb.New()
	people.MustAssert("JOHN", "in", "EMPLOYEE")
	people.MustAssert("EMPLOYEE", "isa", "PERSON")

	payroll := lsdb.New()
	payroll.MustAssert("EMPLOYEE", "EARNS", "SALARY")
	payroll.MustAssert("JOHN", "EARNS", "$25000")

	merged := lsdb.New()
	n1 := merged.Merge(people)
	n2 := merged.Merge(payroll)
	if n1 != 2 || n2 != 2 {
		t.Errorf("merge counts = %d, %d", n1, n2)
	}
	// Cross-database inference now fires.
	if !merged.Has("JOHN", "EARNS", "SALARY") {
		t.Error("cross-database inference failed after merge")
	}
	if !merged.Has("JOHN", "in", "PERSON") {
		t.Error("member-up failed after merge")
	}
}

func TestMergeIdempotent(t *testing.T) {
	a := lsdb.New()
	a.MustAssert("X", "R", "Y")
	b := lsdb.New()
	b.Merge(a)
	if n := b.Merge(a); n != 0 {
		t.Errorf("re-merge inserted %d facts", n)
	}
}

func TestRowsColumn(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("A", "R", "B")
	db.MustAssert("C", "R", "D")
	rows, err := db.Query("(?src, R, ?dst)")
	if err != nil {
		t.Fatal(err)
	}
	srcs := rows.Column("src")
	if len(srcs) != 2 {
		t.Errorf("Column(src) = %v", srcs)
	}
	if rows.Column("nope") != nil {
		t.Error("Column on unknown name should be nil")
	}
}

func TestQueryParseError(t *testing.T) {
	db := lsdb.New()
	if _, err := db.Query("((("); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := db.Probe("((("); err == nil {
		t.Error("probe parse error not surfaced")
	}
}

func TestRelationArityError(t *testing.T) {
	db := lsdb.New()
	if _, err := db.Relation("EMPLOYEE", "WORKS-FOR"); err == nil {
		t.Error("odd attribute list accepted")
	}
}

func TestAddRuleErrors(t *testing.T) {
	db := lsdb.New()
	if err := db.AddRule("bad", "(?x, R, ?y)"); err == nil {
		t.Error("rule without => accepted")
	}
	if err := db.AddRule("unsafe", "(?x, R, B) => (?x, S, ?unbound)"); err == nil {
		t.Error("unsafe rule accepted")
	} else if !strings.Contains(err.Error(), "head variable ?unbound not bound") {
		t.Errorf("unsafe rule error %q does not name ?unbound", err)
	}
	if err := db.AddRule("ok", "(?x, R, ?y) => (?y, R-BY, ?x)"); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	if !db.RemoveRule("ok") || db.RemoveRule("ok") {
		t.Error("RemoveRule misbehaved")
	}
}

func TestIncludeExcludeRuleNames(t *testing.T) {
	db := lsdb.New()
	if err := db.ExcludeRule("synonym"); err != nil {
		t.Fatal(err)
	}
	db.MustAssert("A", "syn", "B")
	if db.Has("B", "syn", "A") {
		t.Error("synonym rule still active after exclude")
	}
	if err := db.IncludeRule("synonym"); err != nil {
		t.Fatal(err)
	}
	if !db.Has("B", "syn", "A") {
		t.Error("synonym rule not restored")
	}
	if err := db.IncludeRule("bogus"); err == nil {
		t.Error("bogus rule name accepted")
	}
}

func TestEntitiesAndRelationships(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("JOHN", "LIKES", "MARY")
	db.MustAssert("JOHN", "LIKES", "FELIX")
	ents := db.Entities()
	if len(ents) != 4 {
		t.Errorf("Entities = %v", ents)
	}
	rels := db.Relationships()
	if len(rels) != 1 || !strings.HasPrefix(rels[0], "LIKES (2)") {
		t.Errorf("Relationships = %v", rels)
	}
}

func TestClosureLen(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("JOHN", "in", "EMPLOYEE")
	db.MustAssert("EMPLOYEE", "EARNS", "SALARY")
	if db.ClosureLen() <= db.Len() {
		t.Errorf("closure %d not larger than base %d", db.ClosureLen(), db.Len())
	}
}

func TestQueryMatchesComposedRelationship(t *testing.T) {
	// §3.7: the template (JOHN, ?x, MARY) matches composed paths.
	db := lsdb.New()
	db.MustAssert("JOHN", "FATHER-OF", "NANCY")
	db.MustAssert("NANCY", "DAUGHTER-OF", "MARY")
	rows, err := db.Query("(JOHN, ?how, MARY)")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tp := range rows.Tuples {
		if tp[0] == "FATHER-OF NANCY DAUGHTER-OF" {
			found = true
		}
	}
	if !found {
		t.Errorf("composed relationship not bound: %v", rows.Tuples)
	}
}

func TestFacadeAccessorsAndHelpers(t *testing.T) {
	db := lsdb.New()
	if db.Composer() == nil || db.Browser() == nil || db.Prober() == nil ||
		db.Engine() == nil || db.Store() == nil || db.Universe() == nil {
		t.Fatal("nil accessor")
	}
	rows, err := db.Query("(?x, NOPE, ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Empty() {
		t.Error("Empty() wrong")
	}
	if err := db.Sync(); err != nil {
		t.Errorf("Sync without log: %v", err)
	}
}

func TestFacadeAddConstraint(t *testing.T) {
	db := lsdb.New()
	if err := db.AddConstraint("pos-age", "(?x, HAS-AGE, ?y) => (?y, >, 0)"); err != nil {
		t.Fatal(err)
	}
	db.MustAssert("JOHN", "HAS-AGE", "-5")
	if db.Consistent() {
		t.Error("constraint violation missed")
	}
	if err := db.AddConstraint("bad", "no arrow"); err == nil {
		t.Error("bad constraint accepted")
	}
}

func TestFacadeQueryTable(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("A", "R", "B")
	db.MustAssert("A", "R", "C")
	out, err := db.QueryTable("(A, R, ?x)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "B") || !strings.Contains(out, "C") {
		t.Errorf("query table:\n%s", out)
	}
	out, err = db.QueryTable("(?x, R, ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "B, C") {
		t.Errorf("two-var table:\n%s", out)
	}
	if _, err := db.QueryTable("((("); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestFacadeDefinition(t *testing.T) {
	db := lsdb.New()
	db.Define("f(?a) := (?a, R, B)")
	d, ok := db.Definition("f")
	if !ok || d.Name != "f" || len(d.Params) != 1 {
		t.Errorf("Definition = %+v, %v", d, ok)
	}
	if _, ok := db.Definition("missing"); ok {
		t.Error("missing definition found")
	}
}

func TestEngineEstimateCount(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("JOHN", "in", "EMPLOYEE")
	db.MustAssert("EMPLOYEE", "EARNS", "SALARY")
	eng := db.Engine()
	u := db.Universe()
	// The estimate covers derived facts: (JOHN, EARNS, SALARY) is in
	// the closure, so the EARNS bucket has ≥ 2 entries.
	if got, exact := eng.EstimateCount(0, u.Entity("EARNS"), 0); got < 2 || !exact {
		t.Errorf("EstimateCount over closure = %d exact %v", got, exact)
	}
}

func TestFind(t *testing.T) {
	db := lsdb.New()
	db.MustAssert("PC#9-WAM", "COMPOSED-BY", "MOZART")
	db.MustAssert("LEOPOLD", "FATHER-OF", "MOZART")
	got := db.Find("moz")
	if len(got) != 1 || got[0] != "MOZART" {
		t.Errorf("Find(moz) = %v", got)
	}
	if got := db.Find("o"); len(got) < 3 {
		t.Errorf("Find(o) = %v", got)
	}
	if got := db.Find("zzz-nothing"); len(got) != 0 {
		t.Errorf("Find miss = %v", got)
	}
}
