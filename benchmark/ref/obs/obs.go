// Package obs is the observability layer: a dependency-free metrics
// registry (atomic counters, gauges, histograms with fixed log-scale
// buckets) and a per-query trace recorder (trace.go).
//
// The paper defers "storage strategies, performance, and update" to
// the implementation; this package is how the implementation watches
// itself run. Every subsystem — store, rules engine, browser, daemon
// — records into one Registry per database, and every exported number
// is readable three ways: the Prometheus text endpoint
// (WritePrometheus), the daemon's /stats JSON, and Snapshot for tests
// and benchmark artifacts. The metric-contract tests treat each
// counter as an API: a refactor that silently stops recording fails
// CI, not a dashboard.
//
// Design constraints, in order:
//
//   - Hot-path cost: a counter increment is one atomic add; histogram
//     observation is two atomic adds plus a bucket add. Handles are
//     nil-safe no-ops, so uninstrumented components (closure clones,
//     ad-hoc stores in tests) pay a predicted branch and nothing else.
//   - Determinism: Snapshot and WritePrometheus order series by name
//     then label string, so goldens and diffs are stable.
//   - No dependencies beyond the standard library.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// usable; a nil *Counter is a no-op (components that were never wired
// to a registry record into nil handles for free).
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter, usable before (or without)
// registration in a Registry.
func NewCounter() *Counter { return &Counter{} }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Max raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if cur >= v || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets and boundaries. All histograms share one fixed
// log-scale layout: bucket i counts observations v with v <= 4^i
// (upper bounds 1, 4, 16, …, 4^23), plus a +Inf overflow bucket.
// Base 4 spans one nanosecond to about three days in 24 buckets —
// coarse enough to stay cheap in the text exposition, fine enough
// that a 2x latency regression always moves mass between buckets.
const (
	// HistBuckets is the number of finite buckets (upper bounds
	// 4^0 … 4^(HistBuckets-1)); one overflow bucket follows.
	HistBuckets = 24
)

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) uint64 { return 1 << (2 * uint(i)) }

// bucketIndex returns the index of the bucket counting v: the
// smallest i with v <= 4^i, or HistBuckets for overflow. Values
// below 1 (including negatives, which should not occur) land in
// bucket 0.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// ceil(log4(v)) = ceil(log2(v)/2); log2 via bit length of v-1.
	i := (bits.Len64(uint64(v-1)) + 1) / 2
	if i >= HistBuckets {
		return HistBuckets
	}
	return i
}

// Histogram is a fixed-bucket log-scale histogram of int64
// observations (typically durations in nanoseconds or sizes in
// facts). Nil-safe like Counter.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram returns a standalone histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the per-bucket counts (not cumulative); index
// HistBuckets is the overflow bucket.
func (h *Histogram) Buckets() [HistBuckets + 1]uint64 {
	var out [HistBuckets + 1]uint64
	if h == nil {
		return out
	}
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// values from the histogram's buckets, interpolating linearly within
// the bucket that holds the target rank. Returns 0 on an empty
// histogram. Because the buckets are log-scale (base 4), the estimate
// is exact only at bucket boundaries; the load harness uses it for
// p50/p95/p99, where a within-bucket error is bounded by the 4x
// bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.Buckets()
	bounds := make([]float64, HistBuckets)
	cum := make([]uint64, HistBuckets+1)
	total := uint64(0)
	for i, c := range counts {
		total += c
		cum[i] = total
		if i < HistBuckets {
			bounds[i] = float64(BucketBound(i))
		}
	}
	return QuantileCumulative(q, bounds, cum)
}

// QuantileCumulative estimates the q-quantile from a cumulative
// bucket series: bounds[i] is the inclusive upper bound of bucket i,
// cum[i] the count of observations <= bounds[i]; cum may carry one
// extra trailing element for the +Inf overflow bucket. This is the
// shape of a Prometheus histogram exposition, which is where the load
// harness reads latency distributions from. Interpolation is linear
// within the winning bucket; overflow observations report the last
// finite bound. Returns 0 when the series is empty.
func QuantileCumulative(q float64, bounds []float64, cum []uint64) float64 {
	if len(cum) == 0 || len(bounds) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	for i, c := range cum {
		if c < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: the best available estimate is the last
			// finite bound (the true value is beyond it).
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		prev := uint64(0)
		if i > 0 {
			lo = bounds[i-1]
			prev = cum[i-1]
		}
		in := c - prev
		if in == 0 {
			return bounds[i]
		}
		frac := float64(rank-prev) / float64(in)
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// metricKind discriminates the series types a Registry holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered time series: a metric name plus a fixed
// label set, bound to a value source.
type series struct {
	name   string // family name, e.g. lsdb_http_requests_total
	labels string // canonical rendered label set, e.g. {endpoint="/query"}
	kind   metricKind
	help   string

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64
}

// Registry is a set of named metrics. Get-or-create accessors return
// the same handle for the same (name, labels) pair, so independent
// components share series safely. All methods are safe for concurrent
// use; nil *Registry accessors return nil handles, which are
// themselves no-ops.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series // kept ordered by (name, labels)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// labelString renders k/v pairs canonically: sorted by key, rendered
// {k="v",…}. Odd trailing args are ignored. Empty labels render "".
func labelString(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, n)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the series for (name, labels), creating it with mk if
// absent. Creating a series under an existing key with a different
// kind panics: that is a programming error, not runtime input.
func (r *Registry) get(name string, labels []string, kind metricKind, mk func(*series)) *series {
	ls := labelString(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %v (was %v)", key, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, labels: ls, kind: kind}
	mk(s)
	r.byKey[key] = s
	// Insert in sorted position; registration is rare, scraping and
	// snapshotting are not, so pay the O(n) here.
	at := sort.Search(len(r.sorted), func(i int) bool {
		o := r.sorted[i]
		if o.name != s.name {
			return o.name > s.name
		}
		return o.labels > s.labels
	})
	r.sorted = append(r.sorted, nil)
	copy(r.sorted[at+1:], r.sorted[at:])
	r.sorted[at] = s
	return s
}

// Counter returns the counter named name with the given label pairs
// (key, value, key, value, …), creating it if needed.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindCounter, func(s *series) { s.c = NewCounter() }).c
}

// Gauge returns the gauge named name with the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindGauge, func(s *series) { s.g = NewGauge() }).g
}

// Histogram returns the histogram named name with the given label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindHistogram, func(s *series) { s.h = NewHistogram() }).h
}

// RegisterCounter binds an existing Counter handle as a registry
// series, so a component can own its counter (usable unregistered)
// and still export it. Re-registering the same key rebinds it.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...string) {
	if r == nil || c == nil {
		return
	}
	s := r.get(name, labels, kindCounter, func(s *series) { s.c = c })
	r.mu.Lock()
	s.c = c
	r.mu.Unlock()
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot/scrape time. Use it to export counters that already exist
// as subsystem atomics (e.g. WAL fsyncs) without double bookkeeping —
// the subsystem atomic stays the single source of truth.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, labels, kindCounterFunc, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge computed by fn at snapshot/scrape time.
// fn must be cheap and must not block on the paths it measures.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, labels, kindGaugeFunc, func(s *series) { s.fn = fn })
}

// Sample is one series value in a Snapshot. Histograms expand to
// <name>_sum and <name>_count samples plus one <name>_bucket sample
// per non-empty bucket (key includes the le label).
type Sample struct {
	Key   string // full series key: name + rendered labels
	Value float64
}

// Snapshot returns every series value, ordered by key. Two snapshots
// of an unchanged registry are identical, including order; tests and
// the benchmark artifact rely on that.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ser := make([]*series, len(r.sorted))
	copy(ser, r.sorted)
	r.mu.Unlock()

	var out []Sample
	for _, s := range ser {
		switch s.kind {
		case kindCounter:
			out = append(out, Sample{s.name + s.labels, float64(s.c.Value())})
		case kindGauge:
			out = append(out, Sample{s.name + s.labels, float64(s.g.Value())})
		case kindCounterFunc, kindGaugeFunc:
			out = append(out, Sample{s.name + s.labels, s.fn()})
		case kindHistogram:
			counts := s.h.Buckets()
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				if c == 0 {
					continue
				}
				out = append(out, Sample{s.name + "_bucket" + withLE(s.labels, leString(i)), float64(cum)})
			}
			out = append(out, Sample{s.name + "_count" + s.labels, float64(s.h.Count())})
			out = append(out, Sample{s.name + "_sum" + s.labels, float64(s.h.Sum())})
		}
	}
	return out
}

// Value returns the snapshot value of the series with the given full
// key (name plus canonical label string, as in Sample.Key), or 0 if
// absent. It is the lookup the metric-contract tests pin against.
func (r *Registry) Value(name string, labels ...string) float64 {
	if r == nil {
		return 0
	}
	key := name + labelString(labels)
	r.mu.Lock()
	s, ok := r.byKey[key]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	switch s.kind {
	case kindCounter:
		return float64(s.c.Value())
	case kindGauge:
		return float64(s.g.Value())
	case kindCounterFunc, kindGaugeFunc:
		return s.fn()
	case kindHistogram:
		return float64(s.h.Count())
	}
	return 0
}

// leString renders bucket i's upper bound for the le label.
func leString(i int) string {
	if i >= HistBuckets {
		return "+Inf"
	}
	return fmt.Sprintf("%d", BucketBound(i))
}

// withLE splices le="…" into an existing canonical label string.
// Prometheus does not require label ordering, so appending keeps the
// existing canonical order stable.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every series in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per family,
// then its series sorted by label string; histograms expose
// cumulative _bucket series (including empty buckets, as the format
// requires), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ser := make([]*series, len(r.sorted))
	copy(ser, r.sorted)
	r.mu.Unlock()

	var b strings.Builder
	lastFamily := ""
	for _, s := range ser {
		if s.name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind.promType())
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.g.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
		case kindHistogram:
			counts := s.h.Buckets()
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, withLE(s.labels, leString(i)), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %d\n", s.name, s.labels, s.h.Sum())
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, s.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float compactly: integers without a point.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
