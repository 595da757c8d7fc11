package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fact"
)

func TestSnapshotRoundTrip(t *testing.T) {
	u := fact.NewUniverse()
	s := New(u)
	facts := [][3]string{
		{"JOHN", "EARNS", "$25000"},
		{"EMPLOYEE", "≺", "PERSON"},
		{"PC#9-WAM", "COMPOSED-BY", "MOZART"},
	}
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	u2 := fact.NewUniverse()
	s2 := New(u2)
	if err := s2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("loaded %d facts, want %d", s2.Len(), s.Len())
	}
	for _, f := range facts {
		if !s2.Has(u2.NewFact(f[0], f[1], f[2])) {
			t.Errorf("missing fact %v after round trip", f)
		}
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	u := fact.NewUniverse()
	s := New(u)
	err := s.LoadSnapshot(bytes.NewBufferString("NOT A SNAPSHOT FILE"))
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.lsdb")
	u := fact.NewUniverse()
	s := New(u)
	s.Insert(u.NewFact("A", "R", "B"))
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
	s2 := New(fact.NewUniverse())
	if err := s2.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Errorf("loaded %d facts", s2.Len())
	}
}

func TestLogReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")

	u := fact.NewUniverse()
	s := New(u)
	if n, err := s.AttachLog(path); err != nil || n != 0 {
		t.Fatalf("AttachLog = (%d, %v)", n, err)
	}
	s.Insert(u.NewFact("A", "R", "B"))
	s.Insert(u.NewFact("C", "R", "D"))
	s.Delete(u.NewFact("A", "R", "B"))
	if err := s.CloseLog(); err != nil {
		t.Fatal(err)
	}

	u2 := fact.NewUniverse()
	s2 := New(u2)
	n, err := s2.AttachLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("replayed %d records, want 3", n)
	}
	if s2.Len() != 1 || !s2.Has(u2.NewFact("C", "R", "D")) {
		t.Errorf("recovered state wrong: %d facts", s2.Len())
	}
	if s2.Has(u2.NewFact("A", "R", "B")) {
		t.Error("deleted fact resurrected")
	}
	s2.CloseLog()
}

func TestLogContinuesAfterReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")

	u := fact.NewUniverse()
	s := New(u)
	s.AttachLog(path)
	s.Insert(u.NewFact("A", "R", "B"))
	s.CloseLog()

	s2 := New(fact.NewUniverse())
	s2.AttachLog(path)
	s2.Insert(s2.Universe().NewFact("E", "R", "F"))
	s2.CloseLog()

	s3 := New(fact.NewUniverse())
	n, err := s3.AttachLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s3.Len() != 2 {
		t.Errorf("after two sessions: replayed %d, len %d", n, s3.Len())
	}
	s3.CloseLog()
}

func TestLogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")

	u := fact.NewUniverse()
	s := New(u)
	s.AttachLog(path)
	s.Insert(u.NewFact("A", "R", "B"))
	s.CloseLog()

	// Simulate a crash mid-append: garbage partial record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 200}) // op=insert, then a varint promising 200 bytes
	f.Close()

	s2 := New(fact.NewUniverse())
	n, err := s2.AttachLog(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if n != 1 || s2.Len() != 1 {
		t.Errorf("recovered (%d records, %d facts), want (1, 1)", n, s2.Len())
	}
	s2.CloseLog()
}

func TestDoubleAttachRejected(t *testing.T) {
	dir := t.TempDir()
	u := fact.NewUniverse()
	s := New(u)
	if _, err := s.AttachLog(filepath.Join(dir, "a.log")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachLog(filepath.Join(dir, "b.log")); err == nil {
		t.Error("second AttachLog accepted")
	}
	s.CloseLog()
}

func TestCompactLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	s.AttachLog(path)
	for i := 0; i < 100; i++ {
		f := u.NewFact("A", "R", string(rune('a'+i%26)))
		s.Insert(f)
		if i%2 == 0 {
			s.Delete(f)
		}
	}
	s.SyncLog()
	before, _ := os.Stat(path)
	if err := s.CompactLog(); err != nil {
		t.Fatal(err)
	}
	s.SyncLog()
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	want := s.Len()
	s.CloseLog()

	s2 := New(fact.NewUniverse())
	n, err := s2.AttachLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != want || s2.Len() != want {
		t.Errorf("compacted log recovered (%d, %d), want %d", n, s2.Len(), want)
	}
	s2.CloseLog()
}

func TestSyncWithoutLogIsNoop(t *testing.T) {
	s := New(fact.NewUniverse())
	if err := s.SyncLog(); err != nil {
		t.Error(err)
	}
	if err := s.CloseLog(); err != nil {
		t.Error(err)
	}
}

func TestCompactWithoutLogFails(t *testing.T) {
	s := New(fact.NewUniverse())
	if err := s.CompactLog(); err == nil {
		t.Error("CompactLog without log succeeded")
	}
}

func TestSnapshotMerges(t *testing.T) {
	u := fact.NewUniverse()
	s := New(u)
	s.Insert(u.NewFact("A", "R", "B"))
	var buf bytes.Buffer
	s.SaveSnapshot(&buf)

	s2 := New(u)
	s2.Insert(u.NewFact("C", "R", "D"))
	if err := s2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("merge load: %d facts, want 2", s2.Len())
	}
}

func TestLogUnknownOpRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	s.AttachLog(path)
	s.Insert(u.NewFact("A", "R", "B"))
	s.CloseLog()

	// Corrupt a complete record with an unknown opcode.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{99, 1, 'X', 1, 'Y', 1, 'Z'})
	f.Close()

	s2 := New(fact.NewUniverse())
	if _, err := s2.AttachLog(path); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestAttachLogBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.log")
	os.WriteFile(path, []byte("THIS IS NOT A LOG FILE AT ALL"), 0o644)
	s := New(fact.NewUniverse())
	if _, err := s.AttachLog(path); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSaveSnapshotFileUnwritable(t *testing.T) {
	s := New(fact.NewUniverse())
	if err := s.SaveSnapshotFile("/nonexistent-dir-xyz/snap"); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestLoadSnapshotTruncatedBody(t *testing.T) {
	u := fact.NewUniverse()
	s := New(u)
	for i := 0; i < 10; i++ {
		s.Insert(u.NewFact("A", "R", fmt.Sprintf("T%d", i)))
	}
	var buf bytes.Buffer
	s.SaveSnapshot(&buf)
	cut := buf.Bytes()[:buf.Len()-5]

	s2 := New(fact.NewUniverse())
	if err := s2.LoadSnapshot(bytes.NewReader(cut)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestRetiredMagicsRejected: snapshots and follower boot files used to
// have formats of their own; both readers now refuse them.
func TestRetiredMagicsRejected(t *testing.T) {
	for _, data := range []string{
		"LSDBSNAP1\n\x01\x01A\x01B\x01C",
		"LSDBBOOT1\n\x07LSDBSNAP1\n\x01\x01A\x01B\x01C",
	} {
		s := New(fact.NewUniverse())
		if err := s.LoadSnapshot(bytes.NewBufferString(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("LoadSnapshot(%q) = %v, want ErrBadFormat", data[:9], err)
		}
		path := filepath.Join(t.TempDir(), "old")
		os.WriteFile(path, []byte(data), 0o644)
		if _, err := s.AttachLog(path); !errors.Is(err, ErrBadFormat) {
			t.Errorf("AttachLog(%q) = %v, want ErrBadFormat", data[:9], err)
		}
	}
}

// TestLoadSnapshotReadsAnyLog: a snapshot is a log, so LoadSnapshot
// accepts a log with a tail and merges the fact set it ends with, at
// the LSN after its last record; a file that ends inside its
// bootstrap section, or in a torn record, is refused.
func TestLoadSnapshotReadsAnyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.log")
	u := fact.NewUniverse()
	s := New(u)
	s.AttachLog(path)
	a, b := u.NewFact("A", "R", "B"), u.NewFact("C", "R", "D")
	s.Insert(a)
	s.Insert(b)
	s.CompactLog()
	s.Delete(a)
	s.Insert(u.NewFact("E", "R", "F"))
	s.Insert(a)
	s.Delete(b)
	s.CloseLog()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	u2 := fact.NewUniverse()
	facts, lsn, err := ReadSnapshotFacts(bytes.NewReader(data), u2)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range facts {
		got = append(got, u2.Name(f.S))
	}
	slices.Sort(got)
	if lsn != 6 || fmt.Sprint(got) != "[A E]" {
		t.Errorf("ReadSnapshotFacts = %v at LSN %d, want [A E] at 6", got, lsn)
	}

	var snap bytes.Buffer
	s2 := New(u)
	s2.Insert(a)
	s2.Insert(b)
	s2.SaveSnapshot(&snap)
	header := len(logMagic2) + 2 // base 0 and count 2 are one byte each
	for _, cut := range []int{header, snap.Len() - 1} {
		if err := New(fact.NewUniverse()).LoadSnapshot(bytes.NewReader(snap.Bytes()[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("snapshot cut at %d of %d bytes: %v, want ErrBadFormat", cut, snap.Len(), err)
		}
	}
}
