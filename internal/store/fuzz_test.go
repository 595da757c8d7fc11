package store

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fact"
)

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoder. It must
// never panic; on error the store must be left untouched; on success
// the bytes must open with AttachLog to the same fact set (a snapshot
// is a log), and the decoded store must survive a save/load round
// trip.
func FuzzSnapshot(f *testing.F) {
	// Log form. Valid: base 5, one bootstrap insert of (A, B, C).
	f.Add([]byte("LSDBLOG2\n\x05\x01\x01\x01A\x01B\x01C"))
	// Truncated bootstrap: declares two records, holds one and a half.
	f.Add([]byte("LSDBLOG2\n\x00\x02\x01\x01A\x01B\x01C\x01\x01D"))
	// Huge bootstrap count with no data (must not pre-allocate).
	f.Add([]byte("LSDBLOG2\n\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	// Oversized name length prefix in the bootstrap section.
	f.Add([]byte("LSDBLOG2\n\x00\x01\x01\xff\xff\xff\x01ZA"))
	// A torn record after the bootstrap section.
	f.Add([]byte("LSDBLOG2\n\x03\x01\x01\x01A\x01B\x01C\x02\x01A\x01B\x05ZZ"))
	// A tail that deletes a bootstrap fact and inserts another.
	f.Add([]byte("LSDBLOG2\n\x03\x01\x01\x01A\x01B\x01C\x02\x01A\x01B\x01C\x01\x01D\x01E\x01F"))
	// The retired LSDBSNAP1 format, which must be rejected. Valid: one
	// fact (A, B, C) of 1-byte names.
	f.Add([]byte("LSDBSNAP1\n\x01\x01A\x01B\x01C"))
	// Truncated: claims two facts, holds one and a half.
	f.Add([]byte("LSDBSNAP1\n\x02\x01A\x01B\x01C\x01D\x01E"))
	// Trailing garbage after a complete fact.
	f.Add([]byte("LSDBSNAP1\n\x01\x01A\x01B\x01Cjunk"))
	// Huge fact count with no data (must not pre-allocate or hang).
	f.Add([]byte("LSDBSNAP1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	// Oversized name length prefix.
	f.Add([]byte("LSDBSNAP1\n\x01\xff\xff\xffZA"))
	// Wrong magic.
	f.Add([]byte("NOTASNAP!\n\x01\x01A\x01B\x01C"))
	// Empty and header-only.
	f.Add([]byte{})
	f.Add([]byte("LSDBSNAP1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		u := fact.NewUniverse()
		s := New(u)
		s.Insert(u.NewFact("PRE", "EXISTING", "FACT"))
		before := s.Len()

		if err := s.LoadSnapshot(bytes.NewReader(data)); err != nil {
			if s.Len() != before {
				t.Fatalf("store mutated by rejected snapshot: %d -> %d facts", before, s.Len())
			}
			return
		}
		if bytes.HasPrefix(data, []byte("LSDBSNAP1")) {
			t.Fatalf("retired snapshot format accepted: %q", data)
		}

		// Accepted bytes are a log: AttachLog opens them to the fact set
		// LoadSnapshot gives a fresh store.
		fresh := New(fact.NewUniverse())
		if err := fresh.LoadSnapshot(bytes.NewReader(data)); err != nil {
			t.Fatalf("second load rejected accepted bytes: %v", err)
		}
		path := filepath.Join(t.TempDir(), "snap.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		opened := New(fact.NewUniverse())
		if _, err := opened.AttachLog(path); err != nil {
			t.Fatalf("AttachLog rejected bytes LoadSnapshot accepted: %v", err)
		}
		defer opened.CloseLog()
		if a, b := nameSet(fresh), nameSet(opened); !maps.Equal(a, b) {
			t.Fatalf("LoadSnapshot gives %v, AttachLog %v", a, b)
		}

		// Saving and reloading must reproduce the fact set.
		var buf bytes.Buffer
		if err := s.SaveSnapshot(&buf); err != nil {
			t.Fatalf("save after load failed: %v", err)
		}
		u2 := fact.NewUniverse()
		s2 := New(u2)
		if err := s2.LoadSnapshot(&buf); err != nil {
			t.Fatalf("round trip rejected own snapshot: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed fact count %d -> %d", s.Len(), s2.Len())
		}
		for _, g := range s.Facts() {
			h := fact.Fact{S: u2.Intern(u.Name(g.S)), R: u2.Intern(u.Name(g.R)), T: u2.Intern(u.Name(g.T))}
			if !s2.Has(h) {
				t.Fatalf("round trip lost fact %s", u.FormatFact(g))
			}
		}
	})
}

// FuzzLogReplay feeds arbitrary bytes to the log opener. Whatever
// state AttachLog accepts, appending new records and reopening the
// log must reproduce it exactly — in particular a torn final record
// (crash mid-append) must not corrupt records appended after it.
func FuzzLogReplay(f *testing.F) {
	// Valid: insert (A, B, C) then delete it.
	f.Add([]byte("LSDBLOG1\n\x01\x01A\x01B\x01C\x02\x01A\x01B\x01C"))
	// Torn tail: one complete insert, then a record whose final name
	// claims 5 bytes but holds 2 (the crash-mid-append regression:
	// appending after the partial record used to fuse them into
	// garbage on the next open).
	f.Add([]byte("LSDBLOG1\n\x01\x01A\x01B\x01C\x01\x01X\x01Y\x05ZZ"))
	// Torn tail mid-varint.
	f.Add([]byte("LSDBLOG1\n\x01\x01A\x01B\x01C\x01\xff"))
	// Unknown op code.
	f.Add([]byte("LSDBLOG1\n\x07\x01A\x01B\x01C"))
	// Oversized name length prefix.
	f.Add([]byte("LSDBLOG1\n\x01\xff\xff\xffZ"))
	// Wrong magic, empty, header-only.
	f.Add([]byte("NOTALOG!!\n\x01\x01A\x01B\x01C"))
	f.Add([]byte{})
	f.Add([]byte("LSDBLOG1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		u := fact.NewUniverse()
		s := New(u)
		if _, err := s.AttachLog(path); err != nil {
			return // rejection is fine; panics are not
		}
		marker := u.NewFact("FZ-MARK", "FZ-REL", "FZ-TGT")
		s.Insert(marker)
		if err := s.CloseLog(); err != nil {
			t.Fatalf("close after append failed: %v", err)
		}

		u2 := fact.NewUniverse()
		s2 := New(u2)
		if _, err := s2.AttachLog(path); err != nil {
			t.Fatalf("reopen after append failed: %v (initial bytes %q)", err, data)
		}
		defer s2.CloseLog()
		if s2.Len() != s.Len() {
			t.Fatalf("replay fact count %d != live %d (initial bytes %q)", s2.Len(), s.Len(), data)
		}
		for _, g := range s.Facts() {
			h := fact.Fact{S: u2.Intern(u.Name(g.S)), R: u2.Intern(u.Name(g.R)), T: u2.Intern(u.Name(g.T))}
			if !s2.Has(h) {
				t.Fatalf("replay lost fact %s (initial bytes %q)", u.FormatFact(g), data)
			}
		}
	})
}

// nameSet is a store's fact set by name, comparable across universes.
func nameSet(s *Store) map[[3]string]bool {
	u := s.Universe()
	out := make(map[[3]string]bool)
	for _, f := range s.Facts() {
		out[[3]string{u.Name(f.S), u.Name(f.R), u.Name(f.T)}] = true
	}
	return out
}
