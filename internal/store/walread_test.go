package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fact"
)

// TestLSNStableAcrossCompactionAndReopen pins the v2 log contract:
// compaction folds history into a bootstrap section but never
// renumbers it, so absolute LSNs survive both compaction and a
// crash-reopen. Under the v1 format this was broken — compaction
// rewrote the log to len(facts) records and the next attach restarted
// the sequence there, shifting every LSN a replication follower held.
func TestLSNStableAcrossCompactionAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f := u.NewFact(fmt.Sprintf("E%d", i), "R", "T")
		s.Insert(f)
		if i%2 == 0 {
			s.Delete(f)
		}
	}
	if got := s.AppendedLSN(); got != 15 {
		t.Fatalf("AppendedLSN = %d, want 15", got)
	}
	if err := s.CompactLog(); err != nil {
		t.Fatal(err)
	}
	st := s.LogStats()
	if st.BaseLSN != 15 || st.AppendedLSN != 15 || st.Records != s.Len() {
		t.Fatalf("after compact: %+v", st)
	}
	s.Insert(u.NewFact("POST", "R", "T"))
	if got := s.AppendedLSN(); got != 16 {
		t.Fatalf("AppendedLSN after post-compact insert = %d, want 16", got)
	}
	// Crash (no close) and recover: the sequence must continue at 16.
	s2, _ := reopen(t, path)
	if got := s2.AppendedLSN(); got != 16 {
		t.Errorf("AppendedLSN after reopen = %d, want 16", got)
	}
	if got := s2.BaseLSN(); got != 15 {
		t.Errorf("BaseLSN after reopen = %d, want 15", got)
	}
}

// TestReadWALStream drives the segment reader: full reads, resumed
// reads (exercising the cached cursor), the durable floor, and the
// trimmed-history error after compaction.
func TestReadWALStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	s.Insert(u.NewFact("C", "R", "D"))
	s.Delete(u.NewFact("A", "R", "B"))

	recs, pos, err := s.ReadWAL(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pos.Base != 0 || pos.Durable != 3 {
		t.Fatalf("pos = %+v", pos)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	want := []WALRecord{
		{LSN: 1, S: "A", R: "R", T: "B"},
		{LSN: 2, S: "C", R: "R", T: "D"},
		{LSN: 3, Delete: true, S: "A", R: "R", T: "B"},
	}
	for i, w := range want {
		if recs[i] != w {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}

	// Resumed read: poll from LSN 2 (cursor cache covers this path on
	// the second call).
	recs, _, err = s.ReadWAL(2, 100)
	if err != nil || len(recs) != 1 || recs[0].LSN != 3 {
		t.Fatalf("ReadWAL(2) = %+v, %v", recs, err)
	}
	recs, _, err = s.ReadWAL(3, 100)
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadWAL(3) = %+v, %v, want empty", recs, err)
	}

	// max bounds the batch.
	recs, _, err = s.ReadWAL(0, 2)
	if err != nil || len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("ReadWAL(0, 2) = %+v, %v", recs, err)
	}

	// Compaction trims history below the new base.
	if err := s.CompactLog(); err != nil {
		t.Fatal(err)
	}
	if _, pos, err = s.ReadWAL(0, 100); !errors.Is(err, ErrWALTrimmed) {
		t.Fatalf("ReadWAL(0) after compact = %v (pos %+v), want ErrWALTrimmed", err, pos)
	}
	s.Insert(u.NewFact("E", "R", "F"))
	recs, pos, err = s.ReadWAL(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pos.Base != 3 || len(recs) != 1 || recs[0].LSN != 4 || recs[0].S != "E" {
		t.Fatalf("after compact: pos %+v recs %+v", pos, recs)
	}
}

// TestReadWALStopsAtDurableFloor: buffered (unfsynced) records must
// never reach a follower, or a primary crash could leave the follower
// holding history the primary itself lost.
func TestReadWALStopsAtDurableFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLogPolicy(path, SyncNever); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	s.Insert(u.NewFact("C", "R", "D"))
	recs, pos, err := s.ReadWAL(0, 100)
	if err != nil || len(recs) != 0 {
		t.Fatalf("unsynced ReadWAL = %+v, %v, want empty", recs, err)
	}
	if pos.Durable != 0 {
		t.Fatalf("durable = %d before any sync", pos.Durable)
	}
	if err := s.SyncLog(); err != nil {
		t.Fatal(err)
	}
	recs, pos, err = s.ReadWAL(0, 100)
	if err != nil || len(recs) != 2 || pos.Durable != 2 {
		t.Fatalf("synced ReadWAL = %d recs, pos %+v, %v", len(recs), pos, err)
	}
	s.CloseLog()
}

// TestReattachLogRecoversStickyError is the satellite-1 regression: a
// store whose log device died (sticky ErrNotDurable-class failure)
// must be able to resume durable commits on a fresh log file without a
// restart, and the replacement must carry the full in-memory state.
func TestReattachLogRecoversStickyError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	fsys := &errAfterFS{budget: len(logMagic) + 10}
	s.SetFS(fsys)
	if _, err := s.AttachLogPolicy(path, SyncAlways); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.InsertLogged(u.NewFact("A", "R", "B")); !ok || err != nil {
		t.Fatalf("first commit = (%v, %v)", ok, err)
	}
	if _, err := s.InsertLogged(u.NewFact("LONG-NAME-THAT-OVERRUNS", "REL", "TGT")); err == nil {
		t.Fatal("commit after write failure reported success")
	}
	if _, err := s.InsertLogged(u.NewFact("C", "R", "D")); err == nil {
		t.Fatal("sticky error did not stick")
	}
	oldLSN := s.AppendedLSN()

	// The "device" comes back (a fresh volume in production; here the
	// real filesystem). Reattach onto a new file.
	s.SetFS(OSFS{})
	path2 := filepath.Join(dir, "ops2.log")
	if err := s.ReattachLog(path2, SyncAlways); err != nil {
		t.Fatalf("ReattachLog: %v", err)
	}
	if st := s.LogStats(); st.Err != "" {
		t.Fatalf("sticky error survived reattach: %+v", st)
	}
	if ok, err := s.InsertLogged(u.NewFact("E", "R", "F")); !ok || err != nil {
		t.Fatalf("commit after reattach = (%v, %v), want durable success", ok, err)
	}
	if got := s.AppendedLSN(); got != oldLSN+1 {
		t.Errorf("AppendedLSN after reattach = %d, want %d (sequence continues)", got, oldLSN+1)
	}
	// Crash and recover from the new log alone: everything the store
	// held in memory — including commits the dead log never persisted —
	// plus the post-recovery commit must be there.
	s2, u2 := reopen(t, path2)
	for _, name := range []string{"A", "LONG-NAME-THAT-OVERRUNS", "C", "E"} {
		rel, tgt := "R", "T"
		switch name {
		case "A":
			tgt = "B"
		case "LONG-NAME-THAT-OVERRUNS":
			rel, tgt = "REL", "TGT"
		case "C":
			tgt = "D"
		case "E":
			tgt = "F"
		}
		if !s2.Has(u2.NewFact(name, rel, tgt)) {
			t.Errorf("fact %s lost across reattach", name)
		}
	}
	if got := s2.AppendedLSN(); got != oldLSN+1 {
		t.Errorf("recovered AppendedLSN = %d, want %d", got, oldLSN+1)
	}
}

// TestAttachInfoSurfacesTornTail is the satellite-3 regression:
// AttachLog silently repaired torn tails; now the cut must be reported
// in the attach return path and in LogStats, so operators and the
// replication oracle can distinguish clean recovery from corruption.
func TestAttachInfoSurfacesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}
	// Hand-tear the log: append an op byte and a partial name — a crash
	// mid-append.
	torn := []byte{opInsert, 5, 'p', 'a'}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := New(fact.NewUniverse())
	info, err := s2.AttachLogInfo(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 || info.LSN != 1 {
		t.Errorf("info = %+v, want 1 record at LSN 1", info)
	}
	if info.TruncatedBytes != int64(len(torn)) || info.TruncatedRecords != 1 {
		t.Errorf("truncation report = %d bytes / %d records, want %d / 1",
			info.TruncatedBytes, info.TruncatedRecords, len(torn))
	}
	if st := s2.LogStats(); st.TruncBytes != int64(len(torn)) || st.TruncRecs != 1 {
		t.Errorf("LogStats truncation = %d / %d", st.TruncBytes, st.TruncRecs)
	}
	s2.CloseLog()

	// A torn header reports bytes but no dropped record.
	path3 := filepath.Join(t.TempDir(), "torn-header.log")
	if err := os.WriteFile(path3, []byte(logMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := New(fact.NewUniverse())
	info, err = s3.AttachLogInfo(path3, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if info.TruncatedBytes != 4 || info.TruncatedRecords != 0 {
		t.Errorf("torn header report = %+v", info)
	}
	s3.CloseLog()
}

// TestResetToReplacesLog covers a follower's re-bootstrap: the store
// moves to exactly the snapshot's facts, the log restarts at the
// snapshot's LSN and keeps that base across appends and a reopen, and
// an absent log starts at LSN 0.
func TestResetToReplacesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.log")
	u := fact.NewUniverse()
	s := New(u)
	if err := s.ResetTo(nil, 5); err == nil {
		t.Fatal("ResetTo without a log accepted")
	}
	info, err := s.AttachLogInfo(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseLSN != 0 || info.LSN != 0 {
		t.Fatalf("absent log attached at %+v, want LSN 0", info)
	}
	s.Insert(u.NewFact("OLD", "R", "T"))
	s.Insert(u.NewFact("KEEP", "R", "T"))
	snap := []fact.Fact{u.NewFact("KEEP", "R", "T"), u.NewFact("NEW", "R", "T")}
	if err := s.ResetTo(snap, 100); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Has(u.NewFact("OLD", "R", "T")) || !s.Has(u.NewFact("NEW", "R", "T")) {
		t.Fatalf("store after reset: %d facts", s.Len())
	}
	if st := s.LogStats(); st.BaseLSN != 100 || st.AppendedLSN != 100 || st.DurableLSN != 100 {
		t.Fatalf("log after reset: %+v", st)
	}
	s.Insert(u.NewFact("TAIL", "R", "T"))
	if got := s.AppendedLSN(); got != 101 {
		t.Fatalf("AppendedLSN = %d, want 101", got)
	}
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}

	s2 := New(fact.NewUniverse())
	info, err = s2.AttachLogInfo(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseLSN != 100 || info.LSN != 101 || info.Replayed != 3 || s2.Len() != 3 {
		t.Fatalf("reopen after reset: %+v, %d facts", info, s2.Len())
	}
	s2.CloseLog()
}

// TestCompactGateDefers: a gate that vetoes the appended LSN must
// defer the checkpoint (no compaction, no snapshot side effects) until
// it allows it — the mechanism the replication primary uses to hold
// records for lagging followers.
func TestCompactGateDefers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(path); err != nil {
		t.Fatal(err)
	}
	var allow bool
	var sawUpto uint64
	s.SetCompactGate(func(upto uint64) bool {
		sawUpto = upto
		return allow
	})
	for i := 0; i < 5; i++ {
		s.Insert(u.NewFact(fmt.Sprintf("E%d", i), "R", "T"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.LogStats(); st.Compactions != 0 {
		t.Fatalf("gated checkpoint still compacted: %+v", st)
	}
	if sawUpto != 5 {
		t.Errorf("gate saw upto=%d, want 5", sawUpto)
	}
	allow = true
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.LogStats(); st.Compactions != 1 || st.BaseLSN != 5 {
		t.Errorf("allowed checkpoint: %+v", st)
	}
	s.CloseLog()
}

// TestSnapshotFactsRoundTrip: the bootstrap pair (facts, lsn) must
// reproduce the primary's state exactly when decoded into a fresh
// universe, and the LSN must be durable by the time SnapshotFacts
// returns.
func TestSnapshotFactsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLogPolicy(path, SyncNever); err != nil {
		t.Fatal(err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	s.Insert(u.NewFact("C", "R", "D"))
	facts, lsn, err := s.SnapshotFacts()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("snapshot lsn = %d, want 2", lsn)
	}
	if got := s.DurableLSN(); got != 2 {
		t.Fatalf("DurableLSN after SnapshotFacts = %d, want 2 (snapshot must sync)", got)
	}
	var buf bytes.Buffer
	if err := s.EncodeSnapshot(&buf, facts, lsn); err != nil {
		t.Fatal(err)
	}
	u2 := fact.NewUniverse()
	decoded, dlsn, err := ReadSnapshotFacts(&buf, u2)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || dlsn != 2 {
		t.Fatalf("decoded %d facts at LSN %d, want 2 at 2", len(decoded), dlsn)
	}
	names := map[string]bool{}
	for _, f := range decoded {
		names[u2.Name(f.S)+u2.Name(f.R)+u2.Name(f.T)] = true
	}
	if !names["ARB"] || !names["CRD"] {
		t.Errorf("decoded set = %v", names)
	}
	s.CloseLog()
}
