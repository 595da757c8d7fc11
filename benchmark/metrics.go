package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set
// for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is what the program takes from BENCHMARK.json, the one place
// where the run length, the workload list, the metric names, their
// units and their bounds are written down. An untraced run reports
// every end-to-end metric, a traced run every per-layer metric
// ("layer.metric", a layer being a module; a layer the workload does
// not exercise reports 0).
var spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the root of the checkout.
func loadSpec(root string) error {
	path := filepath.Join(root, "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds < 1 {
		return fmt.Errorf("%s: run_seconds is %d", path, spec.RunSeconds)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			return fmt.Errorf("%s lists workload %q, which the program does not have", path, w.Name)
		}
	}
	return nil
}

// conform checks that the result carries exactly the wanted metrics,
// each a finite number in its declared unit.
func (r *result) conform(want []metricDef) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(r.metrics), len(want))
	}
	for _, d := range want {
		v, ok := r.metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("run did not report %s", d.Name)
		case v.Unit != d.Unit:
			return fmt.Errorf("%s reported in %s, declared in %s", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("%s is not a number (no samples?)", d.Name)
		}
	}
	return nil
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range spec.PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("BENCHMARK.json declares no per-layer metric " + name)
}
