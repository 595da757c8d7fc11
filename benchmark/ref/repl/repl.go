// Package repl implements WAL-shipping replication for lsdb: a
// primary streams its durable log records and snapshot bootstraps
// over HTTP, and followers replay them into their own stores to serve
// reads with a bounded, observable lag.
//
// The protocol has two endpoints, both served by the primary:
//
//	GET /repl/snapshot            full fact set + X-Lsdb-Lsn header
//	GET /repl/wal?from=&max=&wait=&id=   durable records after `from`
//
// A follower holds the primary's state at its applied LSN and polls
// /repl/wal from that watermark. Only records at or below the
// primary's *durable* LSN ever cross the wire, so the follower's
// applied log is always an exact prefix of what the primary can
// recover after a crash — the torn-replication oracle in
// internal/check leans on this invariant. When the follower's
// watermark precedes the primary's compaction base the primary
// answers 410 Gone and the follower re-bootstraps from a snapshot.
//
// `from` doubles as the follower's acknowledgement: by asking for
// records after LSN n it declares it durably holds everything up to
// n. The primary tracks these acks per follower id and uses them to
// gate log compaction (Primary.AllowCompact), so a connected follower
// is not forced into snapshot re-bootstraps by routine checkpoints —
// unless it falls more than a lag budget behind, at which point the
// primary compacts anyway and lets the straggler re-bootstrap.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/store"
)

const (
	// walMagic heads every /repl/wal response body.
	walMagic = "LSDBWAL1\n"
	// bootMagic heads a follower's boot file: magic, then the boot LSN
	// as a uvarint, then a store snapshot. The file is committed by
	// atomic rename, so it is either absent or complete.
	bootMagic = "LSDBBOOT1\n"

	// maxNameLen bounds a single entity name on the wire, mirroring
	// the store's own log format limit.
	maxNameLen = 1 << 20
)

// batchHeader is the decoded fixed part of a /repl/wal response:
// the primary's log position, the LSN of the first record in the
// body, and the record count.
type batchHeader struct {
	pos   store.WALPos
	first uint64
	count int
}

// writeBatch encodes a full WAL batch (header + records) to w.
func writeBatch(w io.Writer, pos store.WALPos, recs []store.WALRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(walMagic); err != nil {
		return err
	}
	var first uint64
	if len(recs) > 0 {
		first = recs[0].LSN
	}
	putUvarint(bw, pos.Base)
	putUvarint(bw, pos.Durable)
	putUvarint(bw, first)
	putUvarint(bw, uint64(len(recs)))
	for _, rec := range recs {
		op := byte(0)
		if rec.Delete {
			op = 1
		}
		bw.WriteByte(op)
		putString(bw, rec.S)
		putString(bw, rec.R)
		putString(bw, rec.T)
	}
	return bw.Flush()
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}

// readBatchHeader decodes the batch header from br.
func readBatchHeader(br *bufio.Reader) (batchHeader, error) {
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return batchHeader{}, fmt.Errorf("repl: short batch header: %w", err)
	}
	if string(magic) != walMagic {
		return batchHeader{}, errors.New("repl: bad batch magic")
	}
	var h batchHeader
	var err error
	if h.pos.Base, err = binary.ReadUvarint(br); err != nil {
		return batchHeader{}, fmt.Errorf("repl: bad batch header: %w", err)
	}
	if h.pos.Durable, err = binary.ReadUvarint(br); err != nil {
		return batchHeader{}, fmt.Errorf("repl: bad batch header: %w", err)
	}
	if h.first, err = binary.ReadUvarint(br); err != nil {
		return batchHeader{}, fmt.Errorf("repl: bad batch header: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return batchHeader{}, fmt.Errorf("repl: bad batch header: %w", err)
	}
	if count > 1<<24 {
		return batchHeader{}, fmt.Errorf("repl: implausible batch of %d records", count)
	}
	h.count = int(count)
	return h, nil
}

// readRecord decodes one wire record (without its LSN, which is
// implied by position: header.first + index).
func readRecord(br *bufio.Reader) (store.WALRecord, error) {
	op, err := br.ReadByte()
	if err != nil {
		return store.WALRecord{}, err
	}
	if op > 1 {
		return store.WALRecord{}, fmt.Errorf("repl: unknown record op %d", op)
	}
	var rec store.WALRecord
	rec.Delete = op == 1
	if rec.S, err = readWireString(br); err != nil {
		return store.WALRecord{}, err
	}
	if rec.R, err = readWireString(br); err != nil {
		return store.WALRecord{}, err
	}
	if rec.T, err = readWireString(br); err != nil {
		return store.WALRecord{}, err
	}
	return rec, nil
}

func readWireString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("repl: entity name of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeBootFile commits a follower bootstrap atomically: magic + LSN
// + snapshot are built in path.tmp, fsynced and renamed into place.
// After a crash the boot file is either the previous bootstrap or the
// new one, never a torn mix.
func writeBootFile(fsys store.FS, path string, lsn uint64, encode func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(bootMagic)
	putUvarint(bw, lsn)
	err = bw.Flush()
	if err == nil {
		err = encode(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
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

// readBootFile loads a boot file. A missing file is not an error: it
// reports ok=false, meaning the follower starts from LSN 0.
func readBootFile(path string, u *fact.Universe) (facts []fact.Fact, lsn uint64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(bootMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, false, fmt.Errorf("repl: short boot header in %s: %w", path, err)
	}
	if string(magic) != bootMagic {
		return nil, 0, false, fmt.Errorf("repl: bad boot magic in %s", path)
	}
	if lsn, err = binary.ReadUvarint(br); err != nil {
		return nil, 0, false, fmt.Errorf("repl: bad boot LSN in %s: %w", path, err)
	}
	facts, err = store.ReadSnapshotFacts(br, u)
	if err != nil {
		return nil, 0, false, fmt.Errorf("repl: boot snapshot in %s: %w", path, err)
	}
	return facts, lsn, true, nil
}
