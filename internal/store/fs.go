package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the filesystem operations behind durability — log
// appends, atomic compaction, snapshot files — so the crash
// fault-injection harness (internal/check) can substitute an
// implementation that dies partway through a write. Production code
// always uses OSFS.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is the subset of *os.File the durability layer needs.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile opens name with os.OpenFile.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename renames oldpath to newpath and then fsyncs the parent
// directory, so the rename itself — the commit point of atomic
// compaction and snapshot replacement — survives a crash.
func (OSFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(newpath)); err == nil {
		dir.Sync() // best effort: not all filesystems support dir fsync
		dir.Close()
	}
	return nil
}

// Remove removes the named file.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SetFS replaces the filesystem used by this store's durability
// operations. It must be called before AttachLog or any snapshot
// write, and never concurrently with them; it exists for the crash
// fault-injection harness.
func (s *Store) SetFS(fs FS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fsys = fs
}

// fs returns the configured filesystem, defaulting to the real one.
func (s *Store) fs() FS {
	if s.fsys == nil {
		return OSFS{}
	}
	return s.fsys
}
