package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fact"
)

// reopen loads the log at path into a fresh store and returns it.
func reopen(t *testing.T, path string) (*Store, *fact.Universe) {
	t.Helper()
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	t.Cleanup(func() { s.CloseLog() })
	return s, u
}

func TestSyncPolicyString(t *testing.T) {
	if got := SyncAlways.String(); got != "always" {
		t.Errorf("SyncAlways = %q", got)
	}
	if got := SyncNever.String(); got != "never" {
		t.Errorf("SyncNever = %q", got)
	}
	if got := SyncInterval(time.Second).String(); got != "interval(1s)" {
		t.Errorf("SyncInterval = %q", got)
	}
	if got := SyncInterval(0); got != SyncAlways {
		t.Errorf("SyncInterval(0) = %v, want SyncAlways", got)
	}
	var zero SyncPolicy
	if zero != SyncAlways {
		t.Errorf("zero policy = %v, want SyncAlways", zero)
	}
}

// TestSyncAlwaysDurableWithoutClose is the core regression: a commit
// acknowledged under SyncAlways must survive a crash, simulated by
// reopening the log without Flush/Sync/Close on the original handle.
func TestSyncAlwaysDurableWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLogPolicy(path, SyncAlways); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.InsertLogged(u.NewFact("A", "R", "B")); !ok || err != nil {
		t.Fatalf("InsertLogged = (%v, %v)", ok, err)
	}
	if ok, err := s.DeleteLogged(u.NewFact("A", "R", "B")); !ok || err != nil {
		t.Fatalf("DeleteLogged = (%v, %v)", ok, err)
	}
	if ok, err := s.InsertLogged(u.NewFact("C", "R", "D")); !ok || err != nil {
		t.Fatalf("InsertLogged = (%v, %v)", ok, err)
	}
	// No CloseLog, no SyncLog: the process "dies" here.
	s2, u2 := reopen(t, path)
	if s2.Len() != 1 || !s2.Has(u2.NewFact("C", "R", "D")) {
		t.Errorf("after crash: %d facts, want exactly (C,R,D)", s2.Len())
	}
	st := s.LogStats()
	if st.Fsyncs == 0 || st.Appends != 3 || st.LastSync.IsZero() {
		t.Errorf("stats = %+v", st)
	}
}

func TestSyncNeverBuffersUntilSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLogPolicy(path, SyncNever); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	s2, _ := reopen(t, path)
	if s2.Len() != 0 {
		t.Errorf("unsynced record visible after crash: %d facts", s2.Len())
	}
	s2.CloseLog()
	if err := s.SyncLog(); err != nil {
		t.Fatal(err)
	}
	s3, u3 := reopen(t, path)
	if !s3.Has(u3.NewFact("A", "R", "B")) {
		t.Error("record lost after explicit SyncLog")
	}
}

func TestSyncIntervalFlushesInBackground(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	// A fresh log is first fsynced by the flusher; the file system tells
	// the test when that fsync has returned.
	synced := make(chan struct{}, 1)
	s.SetFS(hookSyncFS{sync: func(fsync func() error) error {
		err := fsync()
		select {
		case synced <- struct{}{}:
		default:
		}
		return err
	}})
	if _, err := s.AttachLogPolicy(path, SyncInterval(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("background flusher never synced")
	}
	s2, u2 := reopen(t, path)
	if !s2.Has(u2.NewFact("A", "R", "B")) {
		t.Error("interval-synced record lost")
	}
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}
}

// errAfterFS passes writes through to the real file until budget
// bytes have been written, then fails every write with errInjected —
// a transient-to-permanent media failure, as opposed to the crash
// simulation in internal/check.
type errAfterFS struct {
	OSFS
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected write failure")

func (e *errAfterFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errAfterFile{File: f, fs: e}, nil
}

type errAfterFile struct {
	File
	fs *errAfterFS
}

func (f *errAfterFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.budget < len(p) {
		return 0, errInjected
	}
	f.fs.budget -= len(p)
	return f.File.Write(p)
}

// TestStickyAppendError covers the Log.append sticky-error path: after
// an injected write failure, SyncLog must surface the error and no
// subsequent commit may report success.
func TestStickyAppendError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	// Budget covers the header and the first record's flush, not more.
	fsys := &errAfterFS{budget: len(logMagic) + 10}
	s.SetFS(fsys)
	if _, err := s.AttachLogPolicy(path, SyncAlways); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.InsertLogged(u.NewFact("A", "R", "B")); !ok || err != nil {
		t.Fatalf("first commit = (%v, %v), want durable success", ok, err)
	}
	// This record's flush exceeds the budget: the commit must fail.
	if _, err := s.InsertLogged(u.NewFact("LONG-NAME-THAT-OVERRUNS", "REL", "TGT")); err == nil {
		t.Fatal("commit after write failure reported success")
	}
	if err := s.SyncLog(); !errors.Is(err, errInjected) {
		t.Errorf("SyncLog = %v, want injected error", err)
	}
	// The error is sticky: later commits must keep failing even though
	// their own bytes would fit in a fresh buffer.
	if _, err := s.InsertLogged(u.NewFact("C", "R", "D")); err == nil {
		t.Error("commit after sticky error reported success")
	}
	if err := s.SyncLog(); !errors.Is(err, errInjected) {
		t.Errorf("second SyncLog = %v, want injected error", err)
	}
	if st := s.LogStats(); st.Err == "" {
		t.Errorf("LogStats.Err empty after failure: %+v", st)
	}
	if err := s.CloseLog(); !errors.Is(err, errInjected) {
		t.Errorf("CloseLog = %v, want injected error", err)
	}
}

// hookSyncFS is the real file system with every file's fsync routed
// through sync, which decides when (and whether) to call the fsync it
// is handed.
type hookSyncFS struct {
	OSFS
	sync func(fsync func() error) error
}

func (fs hookSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return hookSyncFile{f, fs.sync}, nil
}

type hookSyncFile struct {
	File
	sync func(fsync func() error) error
}

func (f hookSyncFile) Sync() error { return f.sync(f.File.Sync) }

// TestGroupCommitBatchesFsyncs drives 8 concurrent SyncAlways writers
// through a log whose first fsync does not return before every writer
// has appended a record: seven committers are then queued behind the
// group-commit leader, and the next leader must cover them all with
// one fsync, so the fsync count stays below the append count, while
// every acknowledged record survives a crash.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	const writers, perWriter = 8, 20
	var first atomic.Bool
	s.SetFS(hookSyncFS{sync: func(fsync func() error) error {
		if first.CompareAndSwap(false, true) {
			for s.LogStats().Appends < writers {
				runtime.Gosched()
			}
		}
		return fsync()
	}})
	if _, err := s.AttachLogPolicy(path, SyncAlways); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := u.NewFact(fmt.Sprintf("W%d-%d", w, i), "R", "T")
				if _, err := s.InsertLogged(f); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.LogStats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Fsyncs > st.Appends-(writers-2) {
		t.Errorf("no group commit: %d fsyncs for %d appends, %d of them queued behind one fsync", st.Fsyncs, st.Appends, writers-1)
	}
	// Crash here: every acknowledged record must recover.
	s2, u2 := reopen(t, path)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if !s2.Has(u2.NewFact(fmt.Sprintf("W%d-%d", w, i), "R", "T")) {
				t.Fatalf("acknowledged fact W%d-%d lost", w, i)
			}
		}
	}
}

// TestCompactLogAtomic verifies the temp-file protocol: no .tmp left
// behind, the live log never shrinks below a replayable state, and a
// stale .tmp from a crashed compaction is cleaned up on attach.
func TestCompactLogAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f := u.NewFact(fmt.Sprintf("E%d", i), "R", "T")
		s.Insert(f)
		if i%2 == 0 {
			s.Delete(f)
		}
	}
	if err := s.CompactLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("compaction left its temp file behind")
	}
	// The log must keep accepting durable appends after the swap.
	if ok, err := s.InsertLogged(u.NewFact("POST", "R", "T")); !ok || err != nil {
		t.Fatalf("append after compaction = (%v, %v)", ok, err)
	}
	want := s.Len()
	// Crash (no close) and recover.
	s2, u2 := reopen(t, path)
	if s2.Len() != want || !s2.Has(u2.NewFact("POST", "R", "T")) {
		t.Errorf("recovered %d facts, want %d with POST", s2.Len(), want)
	}
	if st := s.LogStats(); st.Compactions != 1 {
		t.Errorf("compactions = %d", st.Compactions)
	}

	// A stale .tmp (crash between tmp write and rename) is removed on
	// the next attach and never mistaken for the log.
	os.WriteFile(path+".tmp", []byte("partial garbage"), 0o644)
	s3, _ := reopen(t, path)
	if s3.Len() != want {
		t.Errorf("stale tmp perturbed recovery: %d facts", s3.Len())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("stale tmp not cleaned up on attach")
	}
}

// TestTornHeaderRecovered: a crash during log creation can leave a
// strict prefix of the magic header; attach must treat that as a
// fresh log, not corruption.
func TestTornHeaderRecovered(t *testing.T) {
	for cut := 0; cut < len(logMagic); cut++ {
		path := filepath.Join(t.TempDir(), "ops.log")
		if err := os.WriteFile(path, []byte(logMagic[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		u := fact.NewUniverse()
		s := New(u)
		if n, err := s.AttachLog(path); err != nil || n != 0 {
			t.Fatalf("cut=%d: attach = (%d, %v)", cut, n, err)
		}
		s.Insert(u.NewFact("A", "R", "B"))
		s2, u2 := reopen(t, path)
		if !s2.Has(u2.NewFact("A", "R", "B")) {
			t.Errorf("cut=%d: record lost after torn-header recovery", cut)
		}
		s.CloseLog()
	}
	// A non-prefix header of the same length is still corruption.
	path := filepath.Join(t.TempDir(), "ops.log")
	if err := os.WriteFile(path, []byte("XXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(fact.NewUniverse())
	if _, err := s.AttachLog(path); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage header: attach = %v, want ErrBadFormat", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")
	snap := filepath.Join(dir, "ck.snap")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	s.SetAutoCheckpoint(10, snap)
	for i := 0; i < 40; i++ {
		f := u.NewFact(fmt.Sprintf("E%d", i), "R", "T")
		s.Insert(f)
		s.Delete(f)
		s.Insert(f)
	}
	st := s.LogStats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic checkpoint after %d appends", st.Appends)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("checkpoint snapshot missing: %v", err)
	}
	loaded := New(fact.NewUniverse())
	if err := loaded.LoadSnapshotFile(snap); err != nil {
		t.Errorf("checkpoint snapshot unreadable: %v", err)
	}
	// Crash and recover: the checkpointed log must hold the full state.
	s2, u2 := reopen(t, path)
	if s2.Len() != 40 {
		t.Errorf("recovered %d facts, want 40", s2.Len())
	}
	for i := 0; i < 40; i++ {
		if !s2.Has(u2.NewFact(fmt.Sprintf("E%d", i), "R", "T")) {
			t.Fatalf("fact E%d lost across checkpoint", i)
		}
	}
}

// TestCheckpointSnapshotIsALog: the snapshot a checkpoint writes is a
// log whose bootstrap section holds the checkpointed facts at the
// checkpoint's LSN, so AttachLog opens it there and it accepts
// appends like any other log.
func TestCheckpointSnapshotIsALog(t *testing.T) {
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "ops.log"), filepath.Join(dir, "ck.snap")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	s.SetAutoCheckpoint(0, snap)
	for i := 0; i < 6; i++ {
		s.Insert(u.NewFact(fmt.Sprintf("E%d", i), "R", "T"))
	}
	s.Delete(u.NewFact("E0", "R", "T"))
	lsn := s.AppendedLSN()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.CloseLog()

	s2 := New(fact.NewUniverse())
	info, err := s2.AttachLogInfo(snap, SyncAlways)
	if err != nil {
		t.Fatalf("checkpoint snapshot does not open as a log: %v", err)
	}
	if info.BaseLSN != lsn || info.LSN != lsn || s2.Len() != 5 {
		t.Fatalf("snapshot as log: %+v with %d facts, want base %d and 5 facts", info, s2.Len(), lsn)
	}
	u2 := s2.Universe()
	s2.Insert(u2.NewFact("AFTER", "R", "T"))
	if err := s2.CloseLog(); err != nil {
		t.Fatal(err)
	}
	s3, u3 := reopen(t, snap)
	if s3.Len() != 6 || !s3.Has(u3.NewFact("AFTER", "R", "T")) || s3.Has(u3.NewFact("E0", "R", "T")) {
		t.Fatalf("reopened snapshot log: %d facts", s3.Len())
	}
	if got := s3.AppendedLSN(); got != lsn+1 {
		t.Errorf("AppendedLSN = %d, want %d", got, lsn+1)
	}
}
