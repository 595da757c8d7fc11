package store

import (
	"fmt"
	"sync/atomic"
	"time"
)

// A SyncPolicy selects the durability point of logged mutations: the
// moment at which Insert/Delete (and the error-reporting variants
// InsertLogged/DeleteLogged) return to their caller.
type SyncPolicy struct {
	mode     syncMode
	interval time.Duration
}

type syncMode uint8

const (
	// syncAlways is the zero value, so a zero SyncPolicy is the safe
	// default rather than the fast one.
	syncAlways syncMode = iota
	syncNever
	syncTimed
)

// SyncAlways acknowledges a mutation only after the log record is
// flushed and fsynced. Concurrent committers are group-committed:
// while one fsync is in flight the other writers queue behind it, and
// whichever writer runs the next fsync covers every record appended
// so far, so N concurrent commits cost far fewer than N fsyncs.
var SyncAlways = SyncPolicy{mode: syncAlways}

// SyncNever performs no automatic flush or fsync; records reach disk
// only on SyncLog, CloseLog or compaction. A crash loses everything
// since the last explicit sync. Intended for bulk loads.
var SyncNever = SyncPolicy{mode: syncNever}

// SyncInterval acknowledges mutations immediately (buffered) and runs
// a background flusher that syncs the log every d, bounding the
// crash-loss window to at most d of acknowledged writes. A
// non-positive d degrades to SyncAlways.
func SyncInterval(d time.Duration) SyncPolicy {
	if d <= 0 {
		return SyncAlways
	}
	return SyncPolicy{mode: syncTimed, interval: d}
}

// String renders the policy for flags and /stats.
func (p SyncPolicy) String() string {
	switch p.mode {
	case syncNever:
		return "never"
	case syncTimed:
		return fmt.Sprintf("interval(%s)", p.interval)
	default:
		return "always"
	}
}

// LogStats reports durability counters for monitoring endpoints and
// tests. The zero value means "no log attached".
type LogStats struct {
	Attached    bool
	Policy      string
	Appends     uint64    // records appended since attach
	Fsyncs      uint64    // fsyncs issued (group commit batches many appends per fsync)
	Compactions uint64    // successful log compactions since attach
	Records     int       // records in the log since open or last compaction
	BaseLSN     uint64    // LSN the log's bootstrap section corresponds to
	AppendedLSN uint64    // absolute LSN of the last appended record
	DurableLSN  uint64    // highest LSN covered by a successful fsync
	TruncBytes  int64     // torn-tail bytes cut away at the last attach
	TruncRecs   uint64    // partial records dropped at the last attach
	LastSync    time.Time // completion time of the last successful fsync (zero if never)
	Err         string    // sticky log error, empty while healthy
}

// LogStats returns the attached log's durability counters.
func (s *Store) LogStats() LogStats {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return LogStats{}
	}
	l.mu.Lock()
	st := LogStats{
		Attached:    true,
		Policy:      l.policy.String(),
		Records:     l.n,
		BaseLSN:     l.base,
		AppendedLSN: l.lsn,
	}
	if l.err != nil {
		st.Err = l.err.Error()
	}
	l.mu.Unlock()
	st.DurableLSN = l.durable.Load()
	st.TruncBytes = l.truncBytes.Load()
	st.TruncRecs = l.truncRecs.Load()
	st.Appends = l.appends.Load()
	st.Fsyncs = l.fsyncs.Load()
	st.Compactions = l.compactions.Load()
	if ns := l.lastSync.Load(); ns != 0 {
		st.LastSync = time.Unix(0, ns)
	}
	return st
}

// commit blocks until the record at lsn reaches the policy's
// durability point. It is called after the store lock is released, so
// a slow fsync never blocks readers or other appenders. Any sticky
// log error is returned: once the log has failed, no commit reports
// success again.
func (l *Log) commit(lsn uint64) error {
	if l.policy.mode == syncAlways {
		return l.syncTo(lsn)
	}
	// Buffered policies acknowledge at append; still refuse to report
	// success once the log is poisoned.
	return l.stickyErr()
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// appendedLSN returns the sequence number of the last appended record.
func (l *Log) appendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// syncTo makes every record up to at least lsn durable. The writer
// that acquires syncMu is the group leader: it flushes and fsyncs
// everything appended so far, and the writers queued behind it find
// their records already durable when they get the lock.
func (l *Log) syncTo(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return l.stickyErr()
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= lsn {
		return l.stickyErr()
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	target := l.lsn
	if err := l.w.Flush(); err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	f := l.f
	l.mu.Unlock()
	// fsync outside l.mu: appends keep landing in the buffer while the
	// disk write completes; syncMu already serializes flush+fsync pairs.
	if err := f.Sync(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	l.fsyncs.Add(1)
	l.lastSync.Store(time.Now().UnixNano())
	advanceLSN(&l.durable, target)
	return nil
}

// advanceLSN moves a monotone LSN watermark forward to v, never back.
func advanceLSN(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// startFlusher launches the SyncInterval background syncer.
func (l *Log) startFlusher() {
	l.flusherStop = make(chan struct{})
	l.flusherDone = make(chan struct{})
	stop, done := l.flusherStop, l.flusherDone
	go func() {
		defer close(done)
		t := time.NewTicker(l.policy.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if lsn := l.appendedLSN(); lsn > l.durable.Load() {
					l.syncTo(lsn) // error is sticky; surfaces at the next commit
				}
			case <-stop:
				return
			}
		}
	}()
}

// stopFlusher stops the background syncer and waits for it to exit.
func (l *Log) stopFlusher() {
	if l.flusherStop == nil {
		return
	}
	close(l.flusherStop)
	<-l.flusherDone
	l.flusherStop = nil
}

// SetAutoCheckpoint arranges automatic checkpointing: when the log
// holds more than every records AND at least twice the live fact
// count — so compaction reclaims at least half of it — the next
// mutation triggers Checkpoint (an optional atomic snapshot to
// snapPath, then an atomic log compaction). An every of 0 or less
// disables auto-checkpointing.
func (s *Store) SetAutoCheckpoint(every int, snapPath string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpointEvery = every
	s.checkpointSnap = snapPath
}

// Checkpoint writes an atomic snapshot (when a snapshot path is
// configured) and atomically compacts the log to the current fact
// set. Concurrent calls coalesce: if a checkpoint is already running,
// Checkpoint returns nil immediately. A compact gate (SetCompactGate)
// that vetoes the current appended LSN defers the whole checkpoint —
// the log keeps its tail and the next trigger asks again.
func (s *Store) Checkpoint() error {
	if !s.checkpointing.CompareAndSwap(false, true) {
		return nil
	}
	defer s.checkpointing.Store(false)
	s.mu.RLock()
	snap := s.checkpointSnap
	gate := s.compactGate
	var upto uint64
	if s.log != nil {
		upto = s.log.appendedLSN()
	}
	s.mu.RUnlock()
	if gate != nil && !gate(upto) {
		s.m.checkpointsDeferred.Inc()
		return nil
	}
	if snap != "" {
		if err := s.SaveSnapshotFile(snap); err != nil {
			return err
		}
	}
	if err := s.CompactLog(); err != nil {
		return err
	}
	s.m.checkpoints.Inc()
	return nil
}
