package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// WALRecord is one durable log record in name form, as shipped to
// replication followers. Names rather than sym.IDs cross the wire:
// every process interns its own universe.
type WALRecord struct {
	LSN     uint64
	Delete  bool
	S, R, T string
}

// WALPos locates a reader in the primary's log: records Base+1 through
// Durable are individually readable; everything at or below Base has
// been folded into the bootstrap section by compaction and is only
// available as a full snapshot.
type WALPos struct {
	Base    uint64
	Durable uint64
}

// ErrWALTrimmed reports that the requested position precedes the log's
// bootstrap base: compaction folded those records away, so the caller
// must re-bootstrap from a snapshot instead of tailing.
var ErrWALTrimmed = errors.New("store: requested WAL records compacted away")

// ReadWAL returns up to max records with LSNs in (from, Durable],
// reading from a private handle so concurrent appends, syncs and
// compactions proceed untouched. A short (even empty) batch is not
// end-of-stream — the caller polls again from the last LSN it holds.
// from below the bootstrap base returns ErrWALTrimmed along with the
// current position, so followers know to re-bootstrap.
//
// Only durable records are returned: a follower can never hold a
// record the primary might lose in a crash, which is what makes the
// follower's applied log a prefix of the primary's *durable* log.
func (s *Store) ReadWAL(from uint64, max int) ([]WALRecord, WALPos, error) {
	if max <= 0 {
		max = 1024
	}
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return nil, WALPos{}, errors.New("store: no log attached")
	}
	l.mu.Lock()
	pos := WALPos{Base: l.base, Durable: l.durable.Load()}
	if from < pos.Base {
		l.mu.Unlock()
		return nil, pos, ErrWALTrimmed
	}
	if from >= pos.Durable {
		l.mu.Unlock()
		return nil, pos, nil
	}
	// Open the handle while holding l.mu so it matches the base/boot
	// read above: a compaction cannot swap the file in between. After
	// the open, a rename leaves this handle on the old inode, whose
	// flushed content is still a complete, correct record sequence —
	// the read just ends early and the next poll sees the new file.
	f, err := l.fs.OpenFile(l.path, os.O_RDONLY, 0)
	if err != nil {
		l.mu.Unlock()
		return nil, pos, err
	}
	boot := l.boot
	gen := l.compactions.Load()
	lsn, off := pos.Base, int64(0)
	if l.readGen == gen && l.readOff > 0 && l.readLSN >= pos.Base && l.readLSN <= from {
		lsn, off = l.readLSN, l.readOff
	}
	l.mu.Unlock()

	recs, endLSN, endOff, rerr := decodeWALTail(f, boot, lsn, off, from, pos.Durable, max)
	f.Close()
	if rerr != nil {
		return nil, pos, rerr
	}
	if endOff > 0 {
		l.mu.Lock()
		if l.compactions.Load() == gen && endLSN > l.readLSN {
			l.readGen, l.readLSN, l.readOff = gen, endLSN, endOff
		}
		l.mu.Unlock()
	}
	return recs, pos, nil
}

// decodeWALTail reads tail records (from, durable] from f. off>0 is
// a cached cursor: the record with LSN lsn+1 starts there. Otherwise
// the file is read from its header, skipping the bootstrap section,
// and lsn is its base. A clean end before durable is not an error —
// the handle may predate the latest appends or a compaction — but a
// torn record below durable is corruption. It returns the records, the
// LSN and end offset of the last record read, for the cursor cache.
func decodeWALTail(f File, boot int, lsn uint64, off int64, from, durable uint64, max int) ([]WALRecord, uint64, int64, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	lr := newLogReader(f, off)
	if off == 0 {
		if _, _, err := lr.header(); err != nil {
			return nil, 0, 0, fmt.Errorf("%w: log header: %v", ErrBadFormat, err)
		}
		for i := 0; i < boot; i++ {
			if _, err := lr.next(); err != nil {
				return nil, 0, 0, fmt.Errorf("%w: short bootstrap section: %v", ErrBadFormat, err)
			}
		}
	}
	var out []WALRecord
	for lsn < durable && len(out) < max {
		rec, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, 0, fmt.Errorf("%w: torn record below durable LSN %d", ErrBadFormat, durable)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		lsn++
		if lsn > from { // records the caller already holds are skipped
			out = append(out, walRecord(rec, lsn))
		}
	}
	return out, lsn, lr.end, nil
}

func walRecord(rec logRecord, lsn uint64) WALRecord {
	return WALRecord{LSN: lsn, Delete: rec.op == opDelete, S: string(rec.s), R: string(rec.r), T: string(rec.t)}
}

// EncodeRecords writes recs to w in the log's record encoding, which
// is also the replication wire's: their LSNs are not written (a reader
// knows them by position).
func EncodeRecords(w io.Writer, recs []WALRecord) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		op := opInsert
		if rec.Delete {
			op = opDelete
		}
		if err := writeRecord(bw, op, rec.S, rec.R, rec.T); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// A RecordReader decodes records written by EncodeRecords, one at a
// time, so a stream cut short keeps the prefix that arrived.
type RecordReader struct{ lr *logReader }

// NewRecordReader returns a RecordReader over r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{lr: newLogReader(r, 0)}
}

// Next returns the next record, with LSN 0. Like the log's own reader
// it returns io.EOF at a record boundary, io.ErrUnexpectedEOF inside a
// record, and ErrBadFormat for a record no writer produces.
func (rr *RecordReader) Next() (WALRecord, error) {
	rec, err := rr.lr.next()
	if err != nil {
		return WALRecord{}, err
	}
	return walRecord(rec, 0), nil
}

// AppendedLSN returns the absolute LSN of the last appended record, or
// 0 with no log attached. Every acknowledged mutation has an LSN at or
// below this watermark.
func (s *Store) AppendedLSN() uint64 {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return 0
	}
	return l.appendedLSN()
}

// DurableLSN returns the highest LSN covered by a successful fsync, or
// 0 with no log attached. This is the replication floor: only records
// at or below it are ever streamed to followers.
func (s *Store) DurableLSN() uint64 {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return 0
	}
	return l.durable.Load()
}

// BaseLSN returns the log's bootstrap base: records at or below it are
// only available via snapshot, not the record stream.
func (s *Store) BaseLSN() uint64 {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// SetCompactGate installs a predicate consulted before every
// checkpoint compaction, with the log's appended LSN as argument:
// returning false defers the compaction (the log keeps growing and the
// next trigger asks again). The replication primary uses it to keep
// records a connected follower still needs, up to a lag budget.
func (s *Store) SetCompactGate(gate func(upto uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactGate = gate
}
