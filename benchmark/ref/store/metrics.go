package store

import (
	"repro/benchmark/ref/obs"
)

// storeMetrics holds the store's registry handles. The zero value
// (all nil handles) is fully functional: every handle is a nil-safe
// no-op, so an unwired store — closure clones, scratch stores in
// tests — pays one predicted branch per mutation and nothing else.
type storeMetrics struct {
	commits             *obs.Counter // user-visible mutations (insert + delete), not replay
	inserts             *obs.Counter
	deletes             *obs.Counter
	commitNs            *obs.Histogram // durability wait per logged commit
	checkpoints         *obs.Counter
	checkpointsDeferred *obs.Counter // checkpoints vetoed by the compact gate
	snapLoads           *obs.Counter
}

// SetMetrics registers the store's metrics in r and keeps the handles
// for the hot paths. It must be called before the store is shared
// across goroutines (lsdb.Open wires it immediately after
// construction). The WAL counters (appends, fsyncs, compactions,
// records) are func-backed reads of the log's own atomics, so the log
// remains the single source of truth and nothing is counted twice.
func (s *Store) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	s.m = storeMetrics{
		commits:             r.Counter("lsdb_store_commits_total"),
		inserts:             r.Counter("lsdb_store_mutations_total", "op", "insert"),
		deletes:             r.Counter("lsdb_store_mutations_total", "op", "delete"),
		commitNs:            r.Histogram("lsdb_store_commit_ns"),
		checkpoints:         r.Counter("lsdb_store_checkpoints_total"),
		checkpointsDeferred: r.Counter("lsdb_store_checkpoints_deferred_total"),
		snapLoads:           r.Counter("lsdb_store_snapshot_loads_total"),
	}
	r.GaugeFunc("lsdb_store_facts", func() float64 { return float64(s.Len()) })
	r.GaugeFunc("lsdb_store_version", func() float64 { return float64(s.Version()) })
	r.CounterFunc("lsdb_wal_appends_total", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.appends.Load()) })
	})
	r.CounterFunc("lsdb_wal_fsyncs_total", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.fsyncs.Load()) })
	})
	r.CounterFunc("lsdb_wal_compactions_total", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.compactions.Load()) })
	})
	r.GaugeFunc("lsdb_wal_records", func() float64 {
		return s.walStat(func(l *Log) float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(l.n)
		})
	})
	// Torn-tail truncation is detected during AttachLog, which runs
	// before SetMetrics in lsdb.Open — hence func-backed reads of the
	// log's own counters rather than an Inc at attach time.
	r.CounterFunc("lsdb_wal_truncated_total", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.truncRecs.Load()) })
	})
	r.CounterFunc("lsdb_wal_truncated_bytes_total", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.truncBytes.Load()) })
	})
	r.GaugeFunc("lsdb_wal_appended_lsn", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.appendedLSN()) })
	})
	r.GaugeFunc("lsdb_wal_durable_lsn", func() float64 {
		return s.walStat(func(l *Log) float64 { return float64(l.durable.Load()) })
	})
	r.GaugeFunc("lsdb_wal_base_lsn", func() float64 {
		return s.walStat(func(l *Log) float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(l.base)
		})
	})
}

// walStat evaluates f against the attached log, or 0 when detached.
// Used by the func-backed WAL metrics at snapshot/scrape time.
func (s *Store) walStat(f func(*Log) float64) float64 {
	s.mu.RLock()
	l := s.log
	s.mu.RUnlock()
	if l == nil {
		return 0
	}
	return f(l)
}
