package main

import "fmt"

// library is what the workloads call of package lsdb in-process. There
// is one per side: liveLib (lib_live.go) over the checkout's source,
// refLib (lib_ref.go) over the frozen copy.
type library interface {
	load(w *world) (embedded, error)
	writeWAL(dir string, w *world) error
}

// embedded is one database inside the benchmark process.
type embedded interface {
	replay(t trail) string
	assert(s, r, t string)
	unrelatedRelation() string
	closureBuilt() bool
}

var libraries = [2]library{live: liveLib{}, ref: refLib{}}

// nominal is what the reference build typically reads on the reference
// box (2 vCPUs, README.md): round figures near the medians of its own
// readings over the A/A sessions run while the benchmark was written.
// Those readings move by a quarter and more with the state of the box;
// `-aa` prints the current ones beside this table. A run reports each
// timing as the live build's reading over the reference build's reading
// in that same run, times the figure here: the live build's timing as
// it would read when the reference build reads its nominal. The table
// only sets the scale, and nothing is gained by updating it; it
// changes when ref/ is frozen again.
var nominal = map[string]map[string]float64{
	"browse_warm":    {"setup_s": 0.30, "unit_p50_ms": 2.6, "unit_tail_ms": 8.0, "slow_p50_ms": 25},
	"browse_churn":   {"setup_s": 0.30, "unit_p50_ms": 2.6, "unit_tail_ms": 110, "slow_p50_ms": 100},
	"infer_ondemand": {"setup_s": 0.055, "unit_p50_ms": 1.5, "unit_tail_ms": 7.0, "slow_p50_ms": 55},
	"ingest_recover": {"setup_s": 0.024, "unit_p50_ms": 0.8, "unit_tail_ms": 1.1, "slow_p50_ms": 450},
}

// against reports a timing of the live build relative to the same
// timing of the reference build, taken in the same run from operations
// that alternated with the live build's, and scaled to the
// reference's nominal reading.
func (r *result) against(name, unit string, liveV, refV float64, n int, note string) {
	nom := nominal[r.workload][name]
	r.set(name, nom*liveV/refV, unit, n, note)
	r.refs[name] = refV
	r.infof("%s: live %.4f %s against reference %.4f %s in this run, ratio %.4f, times the reference's nominal %g %s",
		name, liveV, unit, refV, unit, liveV/refV, nom, unit)
}

// sideErr names the side an error came from.
func sideErr(side int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s side: %w", sideName[side], err)
}
