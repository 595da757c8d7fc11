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

// Durability has one format, name-based so files survive
// re-interning: the operation log. A log is a header, a bootstrap
// section and a tail.
//
//   - The header is a magic, then (v2) two uvarints: the base LSN the
//     bootstrap section's state corresponds to, and the bootstrap
//     record count. A v1 header is the bare magic: base 0, no
//     bootstrap section. Fresh logs start with a v1 header, so their
//     record numbers and LSNs coincide.
//   - Every record is an op byte (insert or delete) and three
//     length-prefixed names. The bootstrap records reproduce the fact
//     set as of the base and consume no sequence numbers; tail record
//     i (1-based) has LSN base+i.
//
// A compacted or reattached log, a snapshot, a checkpoint, the
// replication bootstrap body and a follower's durable state are all
// this one form: a snapshot is a log with a bootstrap section and no
// tail. encodeLog is the one writer, writeLogFile the one way a whole
// file reaches the disk, and logReader the one reader; each caller
// keeps its own rule for a torn end (replay cuts it, a snapshot
// refuses it, a WAL read below the durable LSN calls it corruption).

const (
	logMagic  = "LSDBLOG1\n"
	logMagic2 = "LSDBLOG2\n"

	// maxNameLen bounds one entity name in a record.
	maxNameLen = 1 << 20
)

const (
	opInsert byte = 1
	opDelete byte = 2
)

var (
	// ErrBadFormat reports a log or snapshot with an unknown header or
	// a record no writer produces.
	ErrBadFormat = errors.New("store: bad file format")
)

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// writeRecord buffers one record: an op byte and three
// length-prefixed names.
func writeRecord(w *bufio.Writer, op byte, s, r, t string) error {
	w.WriteByte(op)
	for _, name := range [3]string{s, r, t} {
		putUvarint(w, uint64(len(name)))
		w.WriteString(name)
	}
	// A bufio.Writer's error is sticky: an empty Write reports any
	// failure above.
	_, err := w.Write(nil)
	return err
}

func writeFact(w *bufio.Writer, op byte, u *fact.Universe, f fact.Fact) error {
	return writeRecord(w, op, u.Name(f.S), u.Name(f.R), u.Name(f.T))
}

// encodeLog writes a whole log to w: a header at base declaring n
// bootstrap records, then an insert for each of the n facts each
// yields. Base 0 with no facts is the v1 header a fresh log starts
// with; anything else needs v2 to carry its numbers.
func encodeLog(w io.Writer, u *fact.Universe, base uint64, n int, each func(func(fact.Fact) error) error) error {
	bw := bufio.NewWriter(w)
	if base == 0 && n == 0 {
		bw.WriteString(logMagic)
	} else {
		bw.WriteString(logMagic2)
		putUvarint(bw, base)
		putUvarint(bw, uint64(n))
	}
	if err := each(func(f fact.Fact) error { return writeFact(bw, opInsert, u, f) }); err != nil {
		return err
	}
	return bw.Flush()
}

// eachOf yields the facts of a slice, for encodeLog.
func eachOf(facts []fact.Fact) func(func(fact.Fact) error) error {
	return func(yield func(fact.Fact) error) error {
		for _, f := range facts {
			if err := yield(f); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeLogFile is the one way a whole file reaches the disk: encode
// builds it in path.tmp, which is fsynced and renamed over path, so
// path holds either its previous content or the complete new log,
// never a mix.
func writeLogFile(fsys FS, path string, encode func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// openForAppend opens an existing log file positioned at its end.
func openForAppend(fsys FS, path string) (File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// countingReader counts bytes consumed from the underlying reader so
// logReader can locate the end of the last complete record through
// its bufio layer (consumed minus still-buffered bytes).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// logReader is the one decoder of the log format. end is the byte
// offset just past the header or the last complete record, which is
// where a torn tail is cut and where a later read may resume.
type logReader struct {
	cr  countingReader
	br  *bufio.Reader
	end int64
	buf []byte // the current record's names, reused by every record
}

// newLogReader reads r, whose first byte sits at offset off of the
// file (0 for a read that starts at the header).
func newLogReader(r io.Reader, off int64) *logReader {
	lr := &logReader{cr: countingReader{r: r, n: off}, end: off}
	lr.br = bufio.NewReader(&lr.cr)
	return lr
}

// logRecord is one decoded record. Its names alias the reader's
// buffer and are valid until the next call to next.
type logRecord struct {
	op      byte
	s, r, t []byte
}

func (rec logRecord) fact(u *fact.Universe) fact.Fact {
	return fact.Fact{S: u.Intern(string(rec.s)), R: u.Intern(string(rec.r)), T: u.Intern(string(rec.t))}
}

// isEOF reports whether err says the data ended, cleanly or torn.
func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// uvarint reads a uvarint that must be there: the data ending before
// it or inside it is io.ErrUnexpectedEOF, a varint that overflows is
// corruption.
func (lr *logReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(lr.br)
	switch {
	case err == nil:
		return v, nil
	case isEOF(err):
		return 0, io.ErrUnexpectedEOF
	default:
		return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
}

// header parses the log header and returns its base and bootstrap
// count. Data that ends inside a header whose bytes so far are a valid
// prefix returns io.ErrUnexpectedEOF: a crash tore the creation write.
// Any other mismatch, the retired snapshot and boot-file magics
// included, is ErrBadFormat.
func (lr *logReader) header() (base, boot uint64, err error) {
	magic := make([]byte, len(logMagic))
	if n, err := io.ReadFull(lr.br, magic); err != nil {
		if isEOF(err) && (string(magic[:n]) == logMagic[:n] || string(magic[:n]) == logMagic2[:n]) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		return 0, 0, fmt.Errorf("%w: short log header: %v", ErrBadFormat, err)
	}
	switch string(magic) {
	case logMagic:
	case logMagic2:
		if base, err = lr.uvarint(); err != nil {
			return 0, 0, err
		}
		if boot, err = lr.uvarint(); err != nil {
			return 0, 0, err
		}
	default:
		return 0, 0, fmt.Errorf("%w: bad log magic", ErrBadFormat)
	}
	lr.end = lr.cr.n - int64(lr.br.Buffered())
	return base, boot, nil
}

// next decodes the next record. It returns io.EOF when the data ends
// at a record boundary, io.ErrUnexpectedEOF when it ends inside a
// record (a torn append), and ErrBadFormat for a record no writer
// produces: an unknown op, an empty name or an oversized one.
func (lr *logReader) next() (logRecord, error) {
	op, err := lr.br.ReadByte()
	if err != nil {
		return logRecord{}, err
	}
	if op != opInsert && op != opDelete {
		return logRecord{}, fmt.Errorf("%w: unknown op %d", ErrBadFormat, op)
	}
	lr.buf = lr.buf[:0]
	var ends [3]int
	for i := range ends {
		n, err := lr.uvarint()
		if err != nil {
			return logRecord{}, err
		}
		// Writers never emit empty names (the universe rejects them),
		// so a zero length prefix is corruption, not a torn tail.
		if n == 0 || n > maxNameLen {
			return logRecord{}, fmt.Errorf("%w: entity name of %d bytes", ErrBadFormat, n)
		}
		start := len(lr.buf)
		lr.buf = append(lr.buf, make([]byte, n)...)
		if _, err := io.ReadFull(lr.br, lr.buf[start:]); err != nil {
			if isEOF(err) {
				err = io.ErrUnexpectedEOF
			}
			return logRecord{}, err
		}
		ends[i] = len(lr.buf)
	}
	lr.end = lr.cr.n - int64(lr.br.Buffered())
	return logRecord{op: op, s: lr.buf[:ends[0]], r: lr.buf[ends[0]:ends[1]], t: lr.buf[ends[1]:ends[2]]}, nil
}

// SaveSnapshot writes the stored facts to w as a snapshot: a log whose
// bootstrap section holds them at the attached log's appended LSN (0
// without a log).
func (s *Store) SaveSnapshot(w io.Writer) error {
	if !s.sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	var base uint64
	if s.log != nil {
		base = s.log.appendedLSN()
	}
	return encodeLog(w, s.u, base, s.lenLocked(), s.eachLocked)
}

// EncodeSnapshot writes facts to w as a snapshot at base, the LSN
// their state corresponds to (SnapshotFacts returns both). The facts
// must be interned against this store's universe.
func (s *Store) EncodeSnapshot(w io.Writer, facts []fact.Fact, base uint64) error {
	return encodeLog(w, s.u, base, len(facts), eachOf(facts))
}

// LoadSnapshot reads a snapshot — any log — from r and merges the fact
// set it ends with into the store. Loaded facts are not appended to a
// log.
//
// The whole file is decoded and validated before the store is
// touched: a malformed one returns ErrBadFormat and leaves the store
// exactly as it was.
func (s *Store) LoadSnapshot(r io.Reader) error {
	facts, _, err := ReadSnapshotFacts(r, s.u)
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

// ReadSnapshotFacts decodes a snapshot — any log — into the fact set
// it ends with, interned against u, and the LSN that set corresponds
// to (the header's base plus any tail records), without touching a
// store. Everything is decoded before it returns: a torn record, data
// that ends inside the bootstrap section, or anything else AttachLog
// would refuse yields ErrBadFormat and no facts. A fact is listed
// twice only if the file inserts it twice with no delete between,
// which no writer does.
func ReadSnapshotFacts(r io.Reader, u *fact.Universe) ([]fact.Fact, uint64, error) {
	lr := newLogReader(r, 0)
	base, boot, err := lr.header()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot header: %v", ErrBadFormat, err)
	}
	// The count is attacker-controlled: a huge value must not allocate
	// before any record is verified.
	facts := make([]fact.Fact, 0, min(boot, 65536))
	// live is built at the first delete; until then every record is an
	// insert and facts is the set.
	var live map[fact.Fact]bool
	var n uint64
	for ; ; n++ {
		rec, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot record %d: %v", ErrBadFormat, n, err)
		}
		f := rec.fact(u)
		switch {
		case rec.op == opDelete:
			if live == nil {
				live = make(map[fact.Fact]bool, len(facts))
				for _, g := range facts {
					live[g] = true
				}
			}
			delete(live, f)
		case live == nil:
			facts = append(facts, f)
		case !live[f]:
			live[f] = true
			facts = append(facts, f)
		}
	}
	if n < boot {
		return nil, 0, fmt.Errorf("%w: snapshot ends inside its bootstrap section (%d of %d records)", ErrBadFormat, n, boot)
	}
	if live != nil {
		out := facts[:0]
		for _, f := range facts {
			if live[f] {
				out = append(out, f)
				delete(live, f)
			}
		}
		facts = out
	}
	return facts, base + (n - boot), nil
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

// SaveSnapshotFile writes a snapshot to path atomically (see
// writeLogFile). The file is a log: AttachLog opens it at the LSN the
// snapshot was taken at.
func (s *Store) SaveSnapshotFile(path string) error {
	return writeLogFile(s.fs(), path, s.SaveSnapshot)
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
// must distinguish clean recovery from silent data loss. An absent
// file starts a fresh log at LSN 0.
func (s *Store) AttachLogInfo(path string, policy SyncPolicy) (AttachInfo, error) {
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
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return AttachInfo{}, err
	}
	if rr.fresh {
		// No complete header survived: this is a brand-new log (or a
		// crash tore the creation write, which happens before anything
		// is appended). One Write call, so a crash mid-creation leaves
		// a recognizable prefix rather than a half-header fused with
		// records.
		if _, err := io.WriteString(f, logMagic); err != nil {
			f.Close()
			return AttachInfo{}, err
		}
	}
	l := &Log{fs: fsys, path: path, policy: policy, f: f, w: bufio.NewWriter(f), n: rr.applied, base: rr.base, boot: rr.boot}
	l.lsn = rr.base + uint64(rr.applied-rr.boot)
	l.durable.Store(l.lsn) // replayed records are on disk already
	l.truncBytes.Store(truncBytes)
	if rr.torn {
		l.truncRecs.Store(1)
	}
	if policy.mode == syncTimed {
		l.startFlusher()
	}
	s.log = l
	info := AttachInfo{Replayed: rr.applied, BaseLSN: rr.base, LSN: l.lsn, TruncatedBytes: truncBytes}
	if rr.torn {
		info.TruncatedRecords = 1
	}
	return info, nil
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
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return rr, err
	}
	lr := newLogReader(f, 0)
	base, boot, err := lr.header()
	if errors.Is(err, io.ErrUnexpectedEOF) {
		rr.fresh = true
		return rr, nil
	}
	if err != nil {
		return rr, err
	}
	for {
		rec, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			rr.torn = true
			break
		}
		if err != nil {
			return rr, err
		}
		f := rec.fact(s.u)
		if rec.op == opInsert {
			if !s.hasLocked(f) {
				s.insertLocked(f)
			}
		} else if s.hasLocked(f) {
			s.deleteLocked(f)
		}
		rr.applied++
	}
	if uint64(rr.applied) < boot {
		// The bootstrap section is written atomically (rename commit),
		// so ending inside it is corruption, not a torn tail: the state
		// would correspond to no LSN at all.
		return rr, fmt.Errorf("%w: log ends inside bootstrap section (%d of %d records)", ErrBadFormat, rr.applied, boot)
	}
	rr.base, rr.boot, rr.valid = base, int(boot), lr.end
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
		l.err = writeFact(l.w, op, u, f)
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
// the current fact set as its bootstrap section at the appended LSN,
// truncating deleted history (see writeLogFile: a crash at any point
// leaves a log that recovers either the old history or the compacted
// state, never neither).
func (s *Store) CompactLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errors.New("store: no log attached")
	}
	return s.log.compact(s)
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
	// The bootstrap section reproduces the fact set as of l.lsn, so the
	// LSN sequence continues from there instead of restarting —
	// compaction never renumbers history out from under followers.
	n := s.lenLocked()
	if err := writeLogFile(l.fs, l.path, func(w io.Writer) error {
		return encodeLog(w, s.u, l.lsn, n, s.eachLocked)
	}); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	// The rename committed: the old handle now refers to the orphaned
	// inode. Reopen the new log for appending.
	nf, err := openForAppend(l.fs, l.path)
	if err != nil {
		// The compacted log is on disk but cannot accept appends;
		// poison the log rather than silently dropping future writes.
		l.err = fmt.Errorf("store: reopen compacted log: %w", err)
		return l.err
	}
	old := l.f
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.n = n
	l.base = l.lsn
	l.boot = n
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
// The replacement is written atomically (see writeLogFile) with its
// base at the old log's last appended LSN — every acknowledged
// mutation is in the fact set, so the LSN sequence continues exactly
// where the old log stopped and replication followers keep their
// position. On failure the old log (and its sticky error) stays
// attached.
func (s *Store) ReattachLog(path string, policy SyncPolicy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	var base uint64
	if s.log != nil {
		base = s.log.appendedLSN()
	}
	return s.replaceLogLocked(path, policy, base, s.lenLocked(), s.eachLocked)
}

// ResetTo makes the store hold exactly facts, the state at LSN base,
// and replaces the attached log with a snapshot of them at that base,
// whether or not the old log is still healthy: a replication
// follower's re-bootstrap. The snapshot is renamed over the log's path
// before the store changes, so after a crash the file recovers either
// the old history or the new state. The store's facts move by the
// minimal difference, which keeps closure maintenance incremental. On
// failure the store is unchanged and the old log is poisoned, since
// its file may already hold the new state.
func (s *Store) ResetTo(facts []fact.Fact, base uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustMutable()
	old := s.log
	if old == nil {
		return errors.New("store: no log attached")
	}
	if err := s.replaceLogLocked(old.path, old.policy, base, len(facts), eachOf(facts)); err != nil {
		old.mu.Lock()
		if old.err == nil {
			old.err = fmt.Errorf("store: reset log: %w", err)
		}
		old.mu.Unlock()
		return err
	}
	target := make(map[fact.Fact]bool, len(facts))
	for _, f := range facts {
		target[f] = true
	}
	for _, f := range s.factsLocked() {
		if !target[f] {
			s.deleteLocked(f)
		}
	}
	for f := range target {
		if !s.hasLocked(f) {
			s.insertLocked(f)
		}
	}
	return nil
}

// replaceLogLocked writes a log of the n facts each yields at base to
// path (see writeLogFile) and attaches it in place of the current log,
// which is closed; its buffered but unflushed bytes are abandoned. On
// failure the current log stays attached. The caller holds the store
// write lock.
func (s *Store) replaceLogLocked(path string, policy SyncPolicy, base uint64, n int, each func(func(fact.Fact) error) error) error {
	fsys := s.fs()
	old := s.log
	if old != nil {
		old.stopFlusher()
	}
	err := writeLogFile(fsys, path, func(w io.Writer) error { return encodeLog(w, s.u, base, n, each) })
	var f File
	if err == nil {
		if f, err = openForAppend(fsys, path); err != nil {
			err = fmt.Errorf("store: reopen replaced log: %w", err)
		}
	}
	if err != nil {
		if old != nil && old.policy.mode == syncTimed {
			old.startFlusher()
		}
		return err
	}
	l := &Log{fs: fsys, path: path, policy: policy, f: f, w: bufio.NewWriter(f), n: n, base: base, boot: n, lsn: base}
	l.durable.Store(base)
	l.lastSync.Store(time.Now().UnixNano())
	if policy.mode == syncTimed {
		l.startFlusher()
	}
	if old != nil {
		old.f.Close()
	}
	s.log = l
	return nil
}
