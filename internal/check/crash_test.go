package check

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fact"
	"repro/internal/store"
)

// TestCrashFSTornWrite pins the failpoint semantics the oracle
// depends on: the write crossing the budget persists exactly its
// allowed prefix, and everything afterwards fails.
func TestCrashFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCrashFS(4)
	f, err := cfs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("ab")); n != 2 || err != nil {
		t.Fatalf("within budget: (%d, %v)", n, err)
	}
	if _, err := f.Write([]byte("cdef")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing budget: %v", err)
	}
	if _, err := f.Write([]byte("g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil || string(got) != "abcd" {
		t.Fatalf("on disk %q (%v), want torn prefix \"abcd\"", got, err)
	}
	if err := cfs.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
}

// sweepSeeds runs crashScan across seeds and accumulates the number
// of crash points checked.
func sweepSeeds(t *testing.T, seeds int, cfg crashConfig) int {
	t.Helper()
	total := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg.Seed = seed
		n, fail := crashScan(cfg)
		total += n
		if fail != nil {
			t.Fatal(fail)
		}
	}
	return total
}

// TestCrashRecoverySyncAlways sweeps crash points through a workload
// committed under SyncAlways with aggressive auto-checkpointing, so
// crashes land inside appends, snapshot writes, compaction tmp
// writes, and the rename windows between them. Every acknowledged
// commit must survive.
func TestCrashRecoverySyncAlways(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	n := sweepSeeds(t, seeds, crashConfig{
		Points:          25,
		Policy:          store.SyncAlways,
		CheckpointEvery: 8,
	})
	t.Logf("checked %d crash points", n)
}

// TestCrashRecoverySyncNever uses explicit periodic SyncLog as the
// durability floor: commits between syncs may vanish, synced prefixes
// may not.
func TestCrashRecoverySyncNever(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	n := sweepSeeds(t, seeds, crashConfig{
		Points:    25,
		Policy:    store.SyncNever,
		SyncEvery: 5,
	})
	t.Logf("checked %d crash points", n)
}

// TestCrashRecoverySyncInterval exercises the background flusher
// racing the crash; the timer gives no deterministic floor, so the
// oracle checks only the prefix property and recoverability.
func TestCrashRecoverySyncInterval(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	n := sweepSeeds(t, seeds, crashConfig{
		Points:          25,
		Policy:          store.SyncInterval(time.Millisecond),
		CheckpointEvery: 8,
	})
	t.Logf("checked %d crash points", n)
}

// TestCrashPointCountMeetsFloor asserts the suite's acceptance floor:
// the three sweeps above cover at least 500 generated crash points in
// a full (non-short) run.
func TestCrashPointCountMeetsFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep only")
	}
	const seeds, points, configs = 8, 25, 3
	if got := seeds * points * configs; got < 500 {
		t.Fatalf("suite covers %d crash points, want >= 500", got)
	}
}

// TestCrashDuringCompactionWindow aims crash points specifically at
// the atomic-compaction protocol: fill a log, then compact under a
// budget that dies inside the tmp write, the rename, or the reopen,
// and require the store to recover either the old or the new log —
// never a broken one.
func TestCrashDuringCompactionWindow(t *testing.T) {
	dir := t.TempDir()

	// Measure the byte cost of the setup and of a clean compaction.
	setup := func(cfs *CrashFS, path string) (*store.Store, *fact.Universe, error) {
		u := fact.NewUniverse()
		st := store.New(u)
		if cfs != nil {
			st.SetFS(cfs)
		}
		if _, err := st.AttachLog(path); err != nil {
			return nil, nil, err
		}
		for i := 0; i < 30; i++ {
			f := u.NewFact(names30[i], "in", "C")
			if _, err := st.InsertLogged(f); err != nil {
				return st, u, err
			}
			if i%3 == 0 {
				if _, err := st.DeleteLogged(f); err != nil {
					return st, u, err
				}
			}
		}
		return st, u, nil
	}

	cleanPath := filepath.Join(dir, "clean.log")
	probe := NewCrashFS(1 << 62)
	st, _, err := setup(probe, cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	before := probe.Written()
	if err := st.CompactLog(); err != nil {
		t.Fatal(err)
	}
	compactCost := probe.Written() - before
	st.CloseLog()
	if compactCost <= 0 {
		t.Fatal("compaction cost not measurable")
	}

	wantLen := -1
	for i := int64(0); i <= compactCost; i += 7 {
		path := filepath.Join(dir, "w.log")
		os.Remove(path)
		cfs := NewCrashFS(1 << 62)
		st, u, err := setup(cfs, path)
		if err != nil {
			t.Fatal(err)
		}
		if wantLen < 0 {
			wantLen = st.Len()
		}
		// Arm the crash inside the compaction window.
		cfs.mu.Lock()
		cfs.budget = cfs.written + i
		cfs.mu.Unlock()
		st.CompactLog() // may fail: the crash is the point
		_ = u
		st.CloseLog()

		u2 := fact.NewUniverse()
		st2 := store.New(u2)
		if _, err := st2.AttachLog(path); err != nil {
			t.Fatalf("budget +%d: recovery failed: %v", i, err)
		}
		if st2.Len() != wantLen {
			t.Fatalf("budget +%d: recovered %d facts, want %d", i, st2.Len(), wantLen)
		}
		if _, err := os.Stat(path + ".tmp"); err == nil {
			// Leftover tmp is allowed only until the next attach, and
			// AttachLog above must have removed it.
			t.Fatalf("budget +%d: stale compaction tmp survived attach", i)
		}
		st2.CloseLog()
	}
}

// names30 gives the compaction-window test stable entity names
// without pulling in a generator.
var names30 = func() []string {
	out := make([]string, 30)
	for i := range out {
		out[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return out
}()
