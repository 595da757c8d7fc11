package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(eps map[string]EndpointLoad) *LoadReport {
	return &LoadReport{Endpoints: eps}
}

func TestParseSLOInline(t *testing.T) {
	b, err := parseSLO("query=50,navigate=20.5, batch=100")
	if err != nil {
		t.Fatal(err)
	}
	if b["query"] != 50 || b["navigate"] != 20.5 || b["batch"] != 100 {
		t.Fatalf("budgets = %v", b)
	}
	for _, bad := range []string{"", "query", "query=", "query=-1", "query=0", "query=fast"} {
		if _, err := parseSLO(bad); err == nil {
			t.Errorf("parseSLO(%q) accepted", bad)
		}
	}
}

func TestParseSLOFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budgets.json")
	if err := os.WriteFile(path, []byte(`{"query": 25, "default": 80}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := parseSLO("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if b["query"] != 25 || b["default"] != 80 {
		t.Fatalf("budgets = %v", b)
	}
	if _, err := parseSLO("@" + path + ".missing"); err == nil {
		t.Error("missing budget file accepted")
	}
}

func TestCheckSLO(t *testing.T) {
	rep := report(map[string]EndpointLoad{
		"query":    {Requests: 100, P99Ms: 12},
		"navigate": {Requests: 50, P99Ms: 48},
		"batch":    {Requests: 10, P99Ms: 3},
		"idle":     {Requests: 0},
	})

	if br := checkSLO(rep, map[string]float64{"query": 50, "navigate": 50}); len(br) != 0 {
		t.Errorf("within budget, got breaches %v", br)
	}
	br := checkSLO(rep, map[string]float64{"query": 10})
	if len(br) != 1 || !strings.Contains(br[0], "query: p99 12.000ms over budget 10ms") {
		t.Errorf("breach = %v", br)
	}
	// default covers un-named endpoints with traffic, not the idle one.
	br = checkSLO(rep, map[string]float64{"default": 20})
	if len(br) != 1 || !strings.Contains(br[0], "navigate") {
		t.Errorf("default breach = %v", br)
	}
	// budgeting an endpoint that saw no traffic is itself a breach.
	br = checkSLO(rep, map[string]float64{"idle": 5})
	if len(br) != 1 || !strings.Contains(br[0], "no traffic") {
		t.Errorf("idle breach = %v", br)
	}
	br = checkSLO(rep, map[string]float64{"missing": 5})
	if len(br) != 1 || !strings.Contains(br[0], "no traffic") {
		t.Errorf("missing breach = %v", br)
	}
}
