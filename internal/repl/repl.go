// Package repl implements WAL-shipping replication for lsdb: a
// primary streams its durable log records and snapshot bootstraps
// over HTTP, and followers replay them into their own stores to serve
// reads with a bounded, observable lag.
//
// The protocol has two endpoints, both served by the primary:
//
//	GET /repl/snapshot            the fact set as a snapshot (a log with
//	                              no tail) whose header carries its LSN,
//	                              also sent as the X-Lsdb-Lsn header
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

	"repro/internal/store"
)

// walMagic heads every /repl/wal response body. Its records are in the
// store's log encoding; version 1 numbered the ops differently.
const walMagic = "LSDBWAL2\n"

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
	bw.WriteString(walMagic)
	var first uint64
	if len(recs) > 0 {
		first = recs[0].LSN
	}
	for _, v := range [...]uint64{pos.Base, pos.Durable, first, uint64(len(recs))} {
		var buf [binary.MaxVarintLen64]byte
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	if err := store.EncodeRecords(bw, recs); err != nil {
		return err
	}
	return bw.Flush()
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
	var count uint64
	for _, v := range [...]*uint64{&h.pos.Base, &h.pos.Durable, &h.first, &count} {
		var err error
		if *v, err = binary.ReadUvarint(br); err != nil {
			return batchHeader{}, fmt.Errorf("repl: bad batch header: %w", err)
		}
	}
	if count > 1<<24 {
		return batchHeader{}, fmt.Errorf("repl: implausible batch of %d records", count)
	}
	h.count = int(count)
	return h, nil
}
