package repl

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	lsdb "repro"
)

// openPrimary opens a logged database and an httptest server exposing
// its replication endpoints.
func openPrimary(t *testing.T, dir string, opts PrimaryOptions) (*lsdb.Database, *Primary, *httptest.Server) {
	t.Helper()
	db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, "primary.log")})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	p := NewPrimary(db, opts)
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", p.ServeWAL)
	mux.HandleFunc("/repl/snapshot", p.ServeSnapshot)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { db.Close() })
	return db, p, srv
}

func startFollower(t *testing.T, dir, primary string) (*lsdb.Database, *Follower) {
	t.Helper()
	db, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatalf("open follower db: %v", err)
	}
	f, err := NewFollower(db, Config{
		Primary: primary,
		Dir:     dir,
		Name:    "f",
		ID:      "f1",
		WaitMs:  100,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("start follower: %v", err)
	}
	return db, f
}

func factNames(db *lsdb.Database) []string {
	u := db.Universe()
	var out []string
	for _, f := range db.Store().Facts() {
		out = append(out, u.FormatFact(f))
	}
	sort.Strings(out)
	return out
}

func sameFacts(t *testing.T, primary, follower *lsdb.Database) {
	t.Helper()
	p, f := factNames(primary), factNames(follower)
	if len(p) != len(f) {
		t.Fatalf("fact count: primary %d, follower %d", len(p), len(f))
	}
	for i := range p {
		if p[i] != f[i] {
			t.Fatalf("fact %d: primary %q, follower %q", i, p[i], f[i])
		}
	}
}

func waitApplied(t *testing.T, f *Follower, lsn uint64) {
	t.Helper()
	if got, ok := f.WaitLSN(lsn, 5*time.Second); !ok {
		t.Fatalf("follower stuck at LSN %d, want %d (stats %+v)", got, lsn, f.Stats())
	}
}

func TestFollowerTailsPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pdb, _, srv := openPrimary(t, pdir, PrimaryOptions{})
	fdb, fl := startFollower(t, fdir, srv.URL)
	defer fl.Stop()

	for i := 0; i < 20; i++ {
		if err := pdb.Assert(fmt.Sprintf("E%d", i), "in", "EMPLOYEE"); err != nil {
			t.Fatalf("assert: %v", err)
		}
	}
	if !pdb.Retract("E3", "in", "EMPLOYEE") {
		t.Fatal("retract: fact not found")
	}
	waitApplied(t, fl, pdb.LSN())
	sameFacts(t, pdb, fdb)
	if fl.Stats().Rebootstraps != 0 {
		t.Fatalf("unexpected re-bootstrap: %+v", fl.Stats())
	}
	// The follower's closure derives from replicated facts.
	if fdb.ClosureLen() == 0 {
		t.Fatal("follower closure empty")
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pdb, _, srv := openPrimary(t, pdir, PrimaryOptions{})

	fdb, fl := startFollower(t, fdir, srv.URL)
	for i := 0; i < 10; i++ {
		pdb.Assert(fmt.Sprintf("A%d", i), "in", "DEPT")
	}
	waitApplied(t, fl, pdb.LSN())
	fl.Stop()
	fdb.Close()

	// Restart from local files only, then catch up on new writes.
	fdb2, fl2 := startFollower(t, fdir, srv.URL)
	defer fl2.Stop()
	if got := fl2.AppliedLSN(); got != 10 {
		t.Fatalf("restart applied LSN = %d, want 10", got)
	}
	pdb.Assert("NEW", "in", "DEPT")
	waitApplied(t, fl2, pdb.LSN())
	sameFacts(t, pdb, fdb2)
}

func TestFollowerRebootstrapsAfterCompaction(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	// Zero lag budget: compaction never waits for followers.
	pdb, _, srv := openPrimary(t, pdir, PrimaryOptions{LagBudget: 1})
	for i := 0; i < 30; i++ {
		pdb.Assert(fmt.Sprintf("B%d", i), "in", "CITY")
	}
	pdb.Retract("B0", "in", "CITY")
	if err := pdb.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}

	// A fresh follower asks for records from 0, which are compacted
	// away: it must bootstrap from a snapshot instead.
	fdb, fl := startFollower(t, fdir, srv.URL)
	defer fl.Stop()
	waitApplied(t, fl, pdb.LSN())
	sameFacts(t, pdb, fdb)
	if fl.Stats().Rebootstraps == 0 {
		t.Fatal("expected a snapshot re-bootstrap")
	}

	// And the re-bootstrapped follower keeps tailing.
	pdb.Assert("AFTER", "in", "CITY")
	waitApplied(t, fl, pdb.LSN())
	sameFacts(t, pdb, fdb)

	// Restart after re-bootstrap recovers from the new boot file.
	fl.Stop()
	fdb.Close()
	fdb2, fl2 := startFollower(t, fdir, srv.URL)
	defer fl2.Stop()
	waitApplied(t, fl2, pdb.LSN())
	sameFacts(t, pdb, fdb2)
}

func TestCompactGateHoldsForConnectedFollower(t *testing.T) {
	dir := t.TempDir()
	pdb, p, _ := openPrimary(t, dir, PrimaryOptions{LagBudget: 100})
	for i := 0; i < 10; i++ {
		pdb.Assert(fmt.Sprintf("C%d", i), "in", "X")
	}
	// A follower acked at LSN 4 within budget: compaction must wait.
	p.observe("slow", 4)
	if p.AllowCompact(10) {
		t.Fatal("compaction allowed over a connected follower's tail")
	}
	// Caught up: compaction proceeds.
	p.observe("slow", 10)
	if !p.AllowCompact(10) {
		t.Fatal("compaction blocked by a caught-up follower")
	}
	// Past the lag budget: the straggler no longer holds the log.
	p.observe("slow2", 4)
	if !p.AllowCompact(200) {
		t.Fatal("compaction blocked by a straggler past the lag budget")
	}
}

func TestPrimaryLongPollDeliversPromptly(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pdb, _, srv := openPrimary(t, pdir, PrimaryOptions{})
	_, fl := startFollower(t, fdir, srv.URL)
	defer fl.Stop()

	// With the follower parked in a long poll, a write should arrive
	// well under the poll period.
	waitApplied(t, fl, pdb.LSN())
	start := time.Now()
	pdb.Assert("FAST", "in", "Y")
	waitApplied(t, fl, pdb.LSN())
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("replication took %v", d)
	}
}

func TestWaitLSNTimesOut(t *testing.T) {
	fdb, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	fl, err := NewFollower(fdb, Config{Primary: "http://127.0.0.1:1", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, ok := fl.WaitLSN(5, 50*time.Millisecond)
	if ok {
		t.Fatalf("WaitLSN reported success at LSN %d with no primary", got)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
		t.Fatalf("WaitLSN timeout took %v", d)
	}
}

// TestFollowerLogNumbersAsPrimary: a follower's own log numbers its
// records as the primary does, so its store's appended LSN equals its
// applied watermark and the primary's LSN for the same state — after a
// snapshot bootstrap, while tailing, across a restart and after a
// forced re-bootstrap. The follower keeps that one log and nothing
// else; files of an older layout are ignored.
func TestFollowerLogNumbersAsPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pdb, _, srv := openPrimary(t, pdir, PrimaryOptions{LagBudget: 1})
	for _, old := range []string{"f.boot", "f.tail-3.log"} {
		if err := os.WriteFile(filepath.Join(fdir, old), []byte("LSDBBOOT1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assert := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			if err := pdb.Assert(fmt.Sprintf("%s%d", prefix, i), "in", "SET"); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string, fdb *lsdb.Database, fl *Follower) {
		t.Helper()
		waitApplied(t, fl, pdb.LSN())
		if a, b, p := fdb.Store().AppendedLSN(), fl.AppliedLSN(), pdb.LSN(); a != b || b != p {
			t.Fatalf("%s: follower appended LSN %d, applied %d, primary %d", stage, a, b, p)
		}
		sameFacts(t, pdb, fdb)
	}

	assert("A", 10)
	pdb.Retract("A0", "in", "SET")
	if err := pdb.Compact(); err != nil {
		t.Fatal(err)
	}
	fdb, fl := startFollower(t, fdir, srv.URL)
	check("after bootstrap", fdb, fl)
	if fl.Stats().Rebootstraps == 0 {
		t.Fatal("fresh follower of a compacted primary did not bootstrap from a snapshot")
	}
	assert("B", 5)
	check("tailing", fdb, fl)
	fl.Stop()
	fdb.Close()

	fdb, fl = startFollower(t, fdir, srv.URL)
	if got := fl.AppliedLSN(); got != pdb.LSN() {
		t.Fatalf("restart applied LSN = %d, want %d", got, pdb.LSN())
	}
	check("after restart", fdb, fl)
	fl.Stop()
	fdb.Close()

	// Compaction past the stopped follower's watermark forces the next
	// start through a second snapshot bootstrap.
	assert("C", 5)
	if err := pdb.Compact(); err != nil {
		t.Fatal(err)
	}
	fdb, fl = startFollower(t, fdir, srv.URL)
	defer fl.Stop()
	check("after re-bootstrap", fdb, fl)
	if fl.Stats().Rebootstraps == 0 {
		t.Fatal("restart behind the compaction base did not re-bootstrap")
	}
	assert("D", 3)
	check("tailing after re-bootstrap", fdb, fl)

	ents, err := os.ReadDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[f.boot f.log f.tail-3.log]" {
		t.Errorf("follower directory holds %v, want its one log beside the ignored old files", names)
	}
}
