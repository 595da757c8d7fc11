package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
)

// Durability has two parts, both name-based so files survive re-interning:
//
//   - Snapshots: a full dump of the fact set, written atomically.
//   - Operation log: an append-only record of inserts and deletes,
//     replayed on open to recover the post-snapshot state.
//
// The formats are versioned by magic headers below.

const (
	snapMagic = "LSDBSNAP1\n"
	logMagic  = "LSDBLOG1\n"
	// logMagic2 heads the v2 log format: magic, then two uvarints —
	// the LSN base (the sequence number the bootstrap section's state
	// corresponds to) and the bootstrap record count — then records.
	// The first bootCount records reproduce the fact set as of the
	// base LSN and consume no sequence numbers; tail record i (1-based)
	// has LSN base+i. v1 files read as base 0 with no bootstrap
	// section, so their record numbers and LSNs coincide.
	logMagic2 = "LSDBLOG2\n"
)

const (
	opInsert byte = 1
	opDelete byte = 2
)

var (
	// ErrBadFormat reports a snapshot or log file with an unknown
	// header or corrupt record.
	ErrBadFormat = errors.New("store: bad file format")
)

func writeString(w *bufio.Writer, s string) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: entity name of %d bytes", ErrBadFormat, n)
	}
	// Writers never emit empty names (the universe rejects them), so a
	// zero length prefix is corruption, not a torn tail.
	if n == 0 {
		return "", fmt.Errorf("%w: empty entity name", ErrBadFormat)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeFact(w *bufio.Writer, u *fact.Universe, f fact.Fact) error {
	if err := writeString(w, u.Name(f.S)); err != nil {
		return err
	}
	if err := writeString(w, u.Name(f.R)); err != nil {
		return err
	}
	return writeString(w, u.Name(f.T))
}

func readFact(r *bufio.Reader, u *fact.Universe) (fact.Fact, error) {
	s, err := readString(r)
	if err != nil {
		return fact.Fact{}, err
	}
	rel, err := readString(r)
	if err != nil {
		return fact.Fact{}, err
	}
	t, err := readString(r)
	if err != nil {
		return fact.Fact{}, err
	}
	return fact.Fact{S: u.Intern(s), R: u.Intern(rel), T: u.Intern(t)}, nil
}

// SaveSnapshot writes all stored facts to w.
func (s *Store) SaveSnapshot(w io.Writer) error {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(s.lenLocked()))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	if err := s.eachLocked(func(f fact.Fact) error { return writeFact(bw, s.u, f) }); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSnapshot reads facts from r into the store (merging with any
// facts already present). Loaded facts are not appended to a log.
//
// The whole snapshot is decoded and validated before the store is
// touched: a malformed file — truncated records, a count that
// overruns the data, or trailing garbage — returns ErrBadFormat and
// leaves the store exactly as it was.
func (s *Store) LoadSnapshot(r io.Reader) error {
	facts, err := ReadSnapshotFacts(r, s.u)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	for _, f := range facts {
		if !s.hasLocked(f) {
			s.insertLocked(f)
		}
	}
	// Counted as one load, not len(facts) commits: replayed facts were
	// committed by whoever wrote the snapshot.
	s.m.snapLoads.Inc()
	return nil
}

// ReadSnapshotFacts decodes a snapshot stream into a fact slice
// interned against u, without touching any store. The whole snapshot
// is decoded and validated before returning — truncated records, a
// count that overruns the data, or trailing garbage yield ErrBadFormat
// and no facts. Replication followers use it to stage a bootstrap
// before committing anything.
func ReadSnapshotFacts(r io.Reader, u *fact.Universe) ([]fact.Fact, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: short snapshot header: %v", ErrBadFormat, err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrBadFormat)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: bad fact count: %v", ErrBadFormat, err)
	}
	// Preallocate conservatively: the count is attacker-controlled and
	// a huge value must not allocate before any record is verified.
	capHint := count
	if capHint > 65536 {
		capHint = 65536
	}
	facts := make([]fact.Fact, 0, capHint)
	for i := uint64(0); i < count; i++ {
		f, err := readFact(br, u)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated snapshot at fact %d/%d: %v", ErrBadFormat, i, count, err)
		}
		facts = append(facts, f)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after %d facts", ErrBadFormat, count)
	}
	return facts, nil
}

// SnapshotFacts returns a stable copy of the fact set together with
// the absolute LSN that state corresponds to, after making every
// record up to that LSN durable — so the pair is a valid replication
// bootstrap: snapshot state + "stream me everything after lsn". On a
// store with no log attached the LSN is 0.
func (s *Store) SnapshotFacts() ([]fact.Fact, uint64, error) {
	s.mu.RLock()
	facts := s.factsLocked()
	l := s.log
	var lsn uint64
	if l != nil {
		lsn = l.appendedLSN()
	}
	s.mu.RUnlock()
	if l != nil {
		// Sync outside the store lock: a follower bootstrapping must
		// not stall writers for the duration of an fsync.
		if err := l.syncTo(lsn); err != nil {
			return nil, 0, err
		}
	}
	return facts, lsn, nil
}

// EncodeSnapshot writes facts to w in the snapshot format. The facts
// must be interned against this store's universe.
func (s *Store) EncodeSnapshot(w io.Writer, facts []fact.Fact) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(facts)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, f := range facts {
		if err := writeFact(bw, s.u, f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveSnapshotFile writes a snapshot to path atomically: the content
// is built in path.tmp, fsynced, and renamed into place, so path
// always holds either the previous complete snapshot or the new one.
func (s *Store) SaveSnapshotFile(path string) error {
	fsys := s.fs()
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := s.SaveSnapshot(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// LoadSnapshotFile loads a snapshot from path into the store.
func (s *Store) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadSnapshot(f)
}

// Log is an append-only operation log backing a Store, with a
// configurable sync policy deciding when commits are acknowledged.
type Log struct {
	fs     FS
	path   string
	policy SyncPolicy

	// mu guards the file handle, the buffered writer, the record
	// counters and the sticky error. It nests inside the store lock
	// (appends) and inside syncMu (flushes), and never acquires
	// either, so the order store.mu → syncMu → mu is acyclic.
	mu   sync.Mutex
	f    File
	w    *bufio.Writer
	n    int    // records in the file (bootstrap + tail)
	base uint64 // LSN the file's bootstrap section corresponds to
	boot int    // bootstrap records at the head of the file (no LSNs)
	lsn  uint64 // absolute sequence number of the last appended record
	err  error  // sticky: the first append/flush/fsync failure

	// Tail-read cursor cache for ReadWAL: when readGen matches the
	// compaction counter, the tail record with LSN readLSN+1 starts at
	// byte readOff of the current file, so a follower polling forward
	// skips straight there instead of re-parsing from the header.
	readGen uint64
	readLSN uint64
	readOff int64

	// Torn-tail accounting from the attach-time replay, surfaced via
	// AttachInfo, LogStats and the lsdb_wal_truncated_* metrics.
	truncBytes atomic.Int64
	truncRecs  atomic.Uint64

	// syncMu serializes flush+fsync pairs so concurrent SyncAlways
	// committers form groups: the holder is the group leader and
	// everyone queued behind it finds its record already durable.
	syncMu  sync.Mutex
	durable atomic.Uint64 // highest lsn covered by a successful fsync

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	compactions atomic.Uint64
	lastSync    atomic.Int64 // unix nanos of the last successful fsync

	flusherStop chan struct{}
	flusherDone chan struct{}
}

// AttachInfo reports what AttachLogInfo found and did while opening a
// log: how much history it replayed, where the LSN sequence stands,
// and whether a torn tail (crash mid-append) had to be cut away.
type AttachInfo struct {
	Replayed         int    // records applied to the store (bootstrap + tail)
	BaseLSN          uint64 // LSN base of the file's bootstrap section
	LSN              uint64 // absolute LSN after replay (base + tail records)
	TruncatedBytes   int64  // torn-tail bytes removed before appending resumes
	TruncatedRecords int    // partial records dropped with those bytes (0 or 1)
}

// AttachLog opens (creating if absent) the operation log at path with
// the SyncAlways policy, replays any existing records into the store,
// and arranges for all future mutations to be appended. It returns
// the number of records replayed. A store may have at most one
// attached log.
func (s *Store) AttachLog(path string) (int, error) {
	return s.AttachLogPolicy(path, SyncAlways)
}

// AttachLogPolicy is AttachLog with an explicit sync policy.
func (s *Store) AttachLogPolicy(path string, policy SyncPolicy) (int, error) {
	info, err := s.AttachLogInfo(path, policy)
	return info.Replayed, err
}

// AttachLogInfo is AttachLogPolicy with the full attach report,
// including torn-tail truncation counts for operators and oracles that
// must distinguish clean recovery from silent data loss.
func (s *Store) AttachLogInfo(path string, policy SyncPolicy) (AttachInfo, error) {
	return s.attachLogAt(path, policy, 0)
}

// AttachLogAt attaches a log whose LSN sequence starts at base instead
// of zero. A fresh file is created with a v2 header carrying base; an
// existing file must already carry exactly that base (replication
// followers encode the base in the tail file name, so a mismatch means
// the file belongs to a different bootstrap generation). base 0 is
// equivalent to AttachLogInfo.
func (s *Store) AttachLogAt(path string, policy SyncPolicy, base uint64) (AttachInfo, error) {
	return s.attachLogAt(path, policy, base)
}

func (s *Store) attachLogAt(path string, policy SyncPolicy, wantBase uint64) (AttachInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	if s.log != nil {
		return AttachInfo{}, errors.New("store: log already attached")
	}
	fsys := s.fs()
	// A crash during a previous compaction or checkpoint can leave a
	// stale replacement file behind; it was never renamed into place,
	// so it is dead weight, not state.
	fsys.Remove(path + ".tmp")
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return AttachInfo{}, err
	}
	rr, err := s.replayLocked(f)
	if err != nil {
		f.Close()
		return AttachInfo{}, err
	}
	var truncBytes int64
	if st, serr := f.Stat(); serr == nil && rr.valid < st.Size() {
		// A torn final record (crash mid-append) survives replay, but
		// the partial bytes must not stay: the next append would fuse
		// with them into a record that parses as garbage on the
		// following open. Cut the file back to the last complete
		// record before appending anything.
		truncBytes = st.Size() - rr.valid
		if err := f.Truncate(rr.valid); err != nil {
			f.Close()
			return AttachInfo{}, err
		}
	}
	base := rr.base
	if rr.fresh {
		// No complete header survived: this is a brand-new log (or a
		// crash tore the creation write, which happens before anything
		// is appended). Write a fresh header at the caller's base.
		base = wantBase
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return AttachInfo{}, err
		}
		if err := writeLogHeader(f, wantBase, 0); err != nil {
			f.Close()
			return AttachInfo{}, err
		}
	} else if wantBase != 0 && base != wantBase {
		f.Close()
		return AttachInfo{}, fmt.Errorf("store: log %s has base %d, caller expected %d", path, base, wantBase)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return AttachInfo{}, err
	}
	l := &Log{fs: fsys, path: path, policy: policy, f: f, w: bufio.NewWriter(f), n: rr.applied, base: base, boot: rr.boot}
	l.lsn = base + uint64(rr.applied-rr.boot)
	l.durable.Store(l.lsn) // replayed records are on disk already
	l.truncBytes.Store(truncBytes)
	if rr.torn {
		l.truncRecs.Store(1)
	}
	if policy.mode == syncTimed {
		l.startFlusher()
	}
	s.log = l
	info := AttachInfo{Replayed: rr.applied, BaseLSN: base, LSN: l.lsn, TruncatedBytes: truncBytes}
	if rr.torn {
		info.TruncatedRecords = 1
	}
	return info, nil
}

// writeLogHeader writes a fresh log header in one Write call, so a
// crash mid-creation leaves a recognizable prefix rather than a
// half-header fused with records. base 0 keeps the v1 format (record
// numbers and LSNs coincide, and existing files and fixtures stay
// byte-compatible); any other base needs the v2 header to carry it.
func writeLogHeader(w io.Writer, base uint64, boot int) error {
	if base == 0 && boot == 0 {
		_, err := io.WriteString(w, logMagic)
		return err
	}
	buf := make([]byte, 0, len(logMagic2)+2*binary.MaxVarintLen64)
	buf = append(buf, logMagic2...)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], base)
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(boot))
	buf = append(buf, tmp[:n]...)
	_, err := w.Write(buf)
	return err
}

// countingReader counts bytes consumed from the underlying reader so
// replay can locate the end of the last complete record even through
// a bufio layer (consumed minus still-buffered bytes).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replayResult is what replayLocked learned about a log file.
type replayResult struct {
	base    uint64 // LSN base from a v2 header; 0 for v1 or fresh
	boot    int    // bootstrap records declared by a v2 header
	applied int    // records applied to the store (bootstrap + tail)
	valid   int64  // byte offset just past the last complete record
	fresh   bool   // no complete header: the caller must write one
	torn    bool   // a partial final record was cut away
}

// replayLocked replays the log file into the store. The caller holds
// the write lock. A torn final record (crash mid-append) is tolerated
// but excluded from valid, so the caller can truncate it away before
// appending. A torn header is a fresh log: headers are written in
// place only at creation — compacted and rebased logs arrive complete
// via atomic rename — and creation appends nothing before the header
// write returns, so no records can have existed.
func (s *Store) replayLocked(f File) (replayResult, error) {
	var rr replayResult
	st, err := f.Stat()
	if err != nil {
		return rr, err
	}
	if st.Size() == 0 {
		rr.fresh = true
		return rr, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return rr, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	magic := make([]byte, len(logMagic))
	if nr, err := io.ReadFull(br, magic); err != nil {
		if (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) &&
			(string(magic[:nr]) == logMagic[:nr] || string(magic[:nr]) == logMagic2[:nr]) {
			rr.fresh = true
			return rr, nil
		}
		return rr, fmt.Errorf("%w: short log header: %v", ErrBadFormat, err)
	}
	switch string(magic) {
	case logMagic:
		// v1: records follow the magic directly, base 0, no bootstrap.
	case logMagic2:
		base, err := binary.ReadUvarint(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rr.fresh = true
				return rr, nil
			}
			return rr, fmt.Errorf("%w: bad log base: %v", ErrBadFormat, err)
		}
		boot, err := binary.ReadUvarint(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rr.fresh = true
				return rr, nil
			}
			return rr, fmt.Errorf("%w: bad log bootstrap count: %v", ErrBadFormat, err)
		}
		rr.base, rr.boot = base, int(boot)
	default:
		return rr, fmt.Errorf("%w: bad log magic", ErrBadFormat)
	}
	rr.valid = cr.n - int64(br.Buffered())
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rr, err
		}
		rec, err := readFact(br, s.u)
		if err != nil {
			// A torn final record is tolerated; anything else
			// (oversized length prefix, unreadable file) is corruption.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				rr.torn = true
				break
			}
			return rr, err
		}
		switch op {
		case opInsert:
			if !s.hasLocked(rec) {
				s.insertLocked(rec)
			}
		case opDelete:
			if s.hasLocked(rec) {
				s.deleteLocked(rec)
			}
		default:
			return rr, fmt.Errorf("%w: unknown op %d", ErrBadFormat, op)
		}
		rr.applied++
		rr.valid = cr.n - int64(br.Buffered())
	}
	if rr.applied < rr.boot {
		// The bootstrap section is written atomically (rename commit),
		// so ending inside it is corruption, not a torn tail: the state
		// would correspond to no LSN at all.
		return rr, fmt.Errorf("%w: log ends inside bootstrap section (%d of %d records)", ErrBadFormat, rr.applied, rr.boot)
	}
	return rr, nil
}

// append buffers one record and returns its sequence number plus the
// record count since the last compaction (for checkpoint triggering).
// Called with the store write lock held. Errors are sticky: after the
// first failure nothing more is written and every durability point
// (commit, SyncLog, CloseLog) reports the failure.
func (l *Log) append(op byte, u *fact.Universe, f fact.Fact) (lsn uint64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		if err := l.w.WriteByte(op); err != nil {
			l.err = err
		} else if err := writeFact(l.w, u, f); err != nil {
			l.err = err
		}
	}
	l.n++
	l.lsn++
	l.appends.Add(1)
	return l.lsn, l.n
}

// SyncLog flushes buffered log records and fsyncs the file. It
// surfaces the log's sticky error even when there is nothing new to
// flush, so a failed append cannot be mistaken for durable.
func (s *Store) SyncLog() error {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return nil
	}
	return l.syncTo(l.appendedLSN())
}

// CloseLog syncs, closes and detaches the log. It is the final
// durability point: after a clean CloseLog every acknowledged
// mutation is on disk regardless of sync policy.
func (s *Store) CloseLog() error {
	s.mu.Lock()
	l := s.log
	s.log = nil
	s.mu.Unlock()
	if l == nil {
		return nil
	}
	l.stopFlusher()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.err
	if ferr := l.w.Flush(); err == nil {
		err = ferr
	}
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CompactLog atomically rewrites the attached log to contain exactly
// the current fact set (one insert per stored fact), truncating
// deleted history. The replacement is built in path.tmp, fsynced and
// renamed over the live log, which stays intact and authoritative
// until the rename commits — a crash at any point leaves a log that
// recovers either the old history or the compacted state, never
// neither.
func (s *Store) CompactLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errors.New("store: no log attached")
	}
	return s.log.compact(s)
}

// writeInsertsLocked writes one insert record per stored fact: the
// bootstrap section of a compacted or reattached log. The caller holds
// the store lock.
func (s *Store) writeInsertsLocked(bw *bufio.Writer) error {
	return s.eachLocked(func(f fact.Fact) error {
		if err := bw.WriteByte(opInsert); err != nil {
			return err
		}
		return writeFact(bw, s.u, f)
	})
}

// compact is CompactLog's body. The caller holds the store write
// lock, so the fact set is stable and no appends race the rewrite.
func (l *Log) compact(s *Store) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	// Flush acknowledged-but-buffered records first, so the old log is
	// complete if the rewrite fails partway and stays in place.
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}

	tmp := l.path + ".tmp"
	tf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	werr := func() error {
		bw := bufio.NewWriter(tf)
		// v2 header: the bootstrap section reproduces the fact set as
		// of l.lsn, so the LSN sequence continues from there instead of
		// restarting — compaction never renumbers history out from
		// under replication followers.
		if err := writeLogHeader(bw, l.lsn, s.lenLocked()); err != nil {
			return err
		}
		if err := s.writeInsertsLocked(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return tf.Sync()
	}()
	if werr == nil {
		l.fsyncs.Add(1)
		werr = tf.Close()
	} else {
		tf.Close()
	}
	if werr != nil {
		l.fs.Remove(tmp)
		return werr
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		l.fs.Remove(tmp)
		return err
	}
	// The rename committed: the old handle now refers to the orphaned
	// inode. Reopen the new log for appending.
	nf, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	if err == nil {
		_, err = nf.Seek(0, io.SeekEnd)
		if err != nil {
			nf.Close()
		}
	}
	if err != nil {
		// The compacted log is on disk but cannot accept appends;
		// poison the log rather than silently dropping future writes.
		l.err = fmt.Errorf("store: reopen compacted log: %w", err)
		return l.err
	}
	old := l.f
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.n = s.lenLocked()
	l.base = l.lsn
	l.boot = l.n
	l.readOff = 0 // drop the tail-read cursor: it indexes the old inode
	l.compactions.Add(1)
	// Everything the new log contains was fsynced before the rename,
	// so every record appended so far is now durable.
	advanceLSN(&l.durable, l.lsn)
	l.lastSync.Store(time.Now().UnixNano())
	old.Close()
	return nil
}

// ReattachLog replaces the store's log with a freshly written one at
// path holding exactly the current fact set, whether or not the old
// log is still healthy. It is the recovery path for a sticky log
// error: a store whose log device died keeps serving reads but rejects
// every commit until restart — ReattachLog lets it resume durable
// commits on a fresh file (typically on a different volume) without
// losing the in-memory state.
//
// The replacement is built in path.tmp, fsynced and renamed into
// place, carrying a v2 header whose base is the old log's last
// appended LSN — every acknowledged mutation is in the fact set, so
// the LSN sequence continues exactly where the old log stopped and
// replication followers keep their position. On failure the old log
// (and its sticky error) stays attached.
func (s *Store) ReattachLog(path string, policy SyncPolicy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	fsys := s.fs()
	old := s.log
	var base uint64
	if old != nil {
		base = old.appendedLSN()
		old.stopFlusher()
	}
	restoreFlusher := func() {
		if old != nil && old.policy.mode == syncTimed {
			old.startFlusher()
		}
	}
	tmp := path + ".tmp"
	tf, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		restoreFlusher()
		return err
	}
	werr := func() error {
		bw := bufio.NewWriter(tf)
		if err := writeLogHeader(bw, base, s.lenLocked()); err != nil {
			return err
		}
		if err := s.writeInsertsLocked(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return tf.Sync()
	}()
	if werr == nil {
		werr = tf.Close()
	} else {
		tf.Close()
	}
	if werr != nil {
		fsys.Remove(tmp)
		restoreFlusher()
		return werr
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		restoreFlusher()
		return err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err == nil {
		_, err = f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		restoreFlusher()
		return fmt.Errorf("store: reopen reattached log: %w", err)
	}
	l := &Log{fs: fsys, path: path, policy: policy, f: f, w: bufio.NewWriter(f), n: s.lenLocked(), base: base, boot: s.lenLocked()}
	l.lsn = base
	l.durable.Store(base)
	l.lastSync.Store(time.Now().UnixNano())
	if policy.mode == syncTimed {
		l.startFlusher()
	}
	if old != nil {
		// Buffered-but-unflushed bytes on the old log are abandoned:
		// their facts are in the new bootstrap section, which is already
		// durable, so nothing acknowledged is lost.
		old.f.Close()
	}
	s.log = l
	return nil
}
