// Command lsdb-load is the multi-tenant SLO harness for lsdbd: it
// builds per-tenant worlds, replays seeded browse sessions (queries,
// keyword searches, navigations, derivations, associations, batches)
// at a target QPS
// across tenants, and reports per-endpoint p50/p95/p99 latency from
// the daemon's own /metrics histograms plus throughput, error and 429
// rates.
//
// Usage:
//
//	lsdb-load [-tenants 3] [-workers 4] [-duration 2s] [-qps 0]
//	          [-seed 7] [-batch 8] [-max-inflight 0] [-url http://host:8080]
//	          [-replica http://replica:8081] [-write-every 16]
//	          [-search-frac 0.15] [-json report.json] [-smoke]
//	          [-slo "query=50,navigate=20"]
//
// With no -url the harness starts an in-process daemon seeded with
// generated worlds (tenants t0..tN-1), so a load run needs no setup.
// With -url it drives an already-running lsdbd, discovering its
// databases via /tenants.
//
// -max-inflight applies an admission quota to the in-process tenants,
// so the run exercises 429 + Retry-After under pressure; 429s are
// reported separately from errors because rejection under overload is
// the specified behavior.
//
// -replica switches to follower-target mode: reads are served by the
// replica daemon at that URL, every -write-every-th op writes through
// the primary at -url, and each worker demands its own last commit
// LSN from the replica via ?min_lsn=. Reads the replica cannot
// satisfy in time answer 412 and are reported separately from errors,
// like 429s: a lagging replica refusing staleness is the specified
// read-your-writes behavior.
//
// -smoke exits nonzero unless the run achieved nonzero throughput
// with zero non-429 errors — the CI gate wired into `make load-smoke`.
//
// -slo gates the run on per-endpoint p99 latency budgets. Budgets are
// milliseconds, given either inline ("query=50,navigate=20", with the
// pseudo-endpoint "default" covering every endpoint not named) or in
// a JSON file ("@budgets.json", an object of the same shape). A named
// endpoint that saw no traffic is a breach — it usually means a typo
// in the budget spec. On any breach the offending endpoints are
// printed and the exit status is nonzero, so CI can hold the serving
// layer to a latency contract, not just to liveness.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	tenants := flag.Int("tenants", 3, "number of tenant databases to drive")
	workers := flag.Int("workers", 4, "concurrent client workers per tenant")
	duration := flag.Duration("duration", 2*time.Second, "load duration")
	qps := flag.Float64("qps", 0, "target aggregate requests/sec (0 = unthrottled)")
	seed := flag.Int64("seed", 7, "seed for tenant worlds and session mixes")
	batch := flag.Int("batch", 8, "ops per POST /batch request in the session mix")
	maxInflight := flag.Int("max-inflight", 0, "per-tenant admission quota for the in-process daemon (0 = unlimited)")
	baseURL := flag.String("url", "", "drive an external lsdbd at this base URL instead of in-process")
	replicaURL := flag.String("replica", "", "follower-target mode: serve reads from the replica lsdbd at this URL with ?min_lsn= read-your-writes, writing through the primary at -url (412s reported separately)")
	writeEvery := flag.Int("write-every", 0, "follower-target mode: per-worker op period of primary writes (default 16)")
	searchFrac := flag.Float64("search-frac", 0.15, "share of session ops that are GET /search keyword queries (0 disables)")
	jsonPath := flag.String("json", "", "write the report as JSON to this path")
	smoke := flag.Bool("smoke", false, "exit nonzero unless throughput > 0 and non-429 errors == 0")
	slo := flag.String("slo", "", `per-endpoint p99 budgets in ms ("query=50,default=100" or @budgets.json); exit nonzero on breach`)
	flag.Parse()

	cfg := LoadConfig{
		Tenants:     *tenants,
		Workers:     *workers,
		Duration:    *duration,
		QPS:         *qps,
		Seed:        *seed,
		BatchSize:   *batch,
		MaxInflight: *maxInflight,
		BaseURL:     *baseURL,
		ReplicaURL:  *replicaURL,
		WriteEvery:  *writeEvery,
	}
	if *searchFrac > 0 {
		cfg.SearchFraction = *searchFrac
	} else {
		cfg.SearchFraction = -1
	}

	var rep *LoadReport
	var err error
	if *jsonPath != "" {
		rep, err = WriteLoadJSON(*jsonPath, cfg)
	} else {
		rep, err = RunLoad(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("lsdb-load: %d tenants x %d workers, %.1fs, seed %d\n",
		rep.Tenants, rep.Workers, rep.DurationSec, rep.Seed)
	fmt.Printf("  sent %d, throughput %.0f qps, 429s %d, errors %d\n",
		rep.Sent, rep.Throughput, rep.Rejected429, rep.Errors)
	if *replicaURL != "" {
		fmt.Printf("  follower-target: %d primary writes, %d reads answered 412 (stale replica)\n",
			rep.Writes, rep.Stale412)
	}
	eps := make([]string, 0, len(rep.Endpoints))
	for ep := range rep.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		e := rep.Endpoints[ep]
		if e.Requests == 0 && e.Rejected == 0 {
			continue
		}
		fmt.Printf("  %-10s %7d req %6d rej  p50 %8.3fms  p95 %8.3fms  p99 %8.3fms\n",
			ep, e.Requests, e.Rejected, e.P50Ms, e.P95Ms, e.P99Ms)
	}
	if *jsonPath != "" {
		fmt.Printf("  report written to %s\n", *jsonPath)
	}

	// Parse the SLO spec before the run is judged so a malformed spec
	// fails loudly rather than silently passing the gate.
	var budgets map[string]float64
	if *slo != "" {
		var err error
		if budgets, err = parseSLO(*slo); err != nil {
			log.Fatal(err)
		}
	}

	if *smoke {
		if rep.Throughput <= 0 || rep.Errors > 0 {
			buf, _ := json.Marshal(rep)
			fmt.Fprintf(os.Stderr, "load smoke FAILED: throughput=%.1f errors=%d\n%s\n",
				rep.Throughput, rep.Errors, buf)
			os.Exit(1)
		}
		fmt.Println("  load smoke OK")
	}

	if budgets != nil {
		if breaches := checkSLO(rep, budgets); len(breaches) > 0 {
			for _, b := range breaches {
				fmt.Fprintln(os.Stderr, "slo FAILED:", b)
			}
			os.Exit(1)
		}
		fmt.Println("  slo OK")
	}
}

// parseSLO parses the -slo value: "@file.json" loads a JSON object of
// endpoint → p99 budget (ms); otherwise the value is a comma list of
// endpoint=ms pairs. "default" is a catch-all budget for endpoints
// not named explicitly.
func parseSLO(spec string) (map[string]float64, error) {
	budgets := make(map[string]float64)
	if strings.HasPrefix(spec, "@") {
		buf, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("slo: %w", err)
		}
		if err := json.Unmarshal(buf, &budgets); err != nil {
			return nil, fmt.Errorf("slo: %s: %w", spec[1:], err)
		}
	} else {
		for _, pair := range strings.Split(spec, ",") {
			ep, ms, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("slo: %q is not endpoint=ms", pair)
			}
			v, err := strconv.ParseFloat(ms, 64)
			if err != nil {
				return nil, fmt.Errorf("slo: %q: %w", pair, err)
			}
			budgets[ep] = v
		}
	}
	for ep, v := range budgets {
		if v <= 0 {
			return nil, fmt.Errorf("slo: budget for %q must be positive, got %g", ep, v)
		}
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("slo: empty budget spec")
	}
	return budgets, nil
}

// checkSLO compares every budgeted endpoint's measured p99 against
// its budget, returning one message per breach. Explicitly named
// endpoints must have seen traffic; the "default" budget applies to
// every endpoint with traffic that has no explicit budget.
func checkSLO(rep *LoadReport, budgets map[string]float64) []string {
	var breaches []string
	def, hasDefault := budgets["default"]
	eps := make([]string, 0, len(rep.Endpoints))
	for ep := range rep.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		e := rep.Endpoints[ep]
		budget, named := budgets[ep]
		if !named {
			if !hasDefault {
				continue
			}
			budget = def
		}
		if e.Requests == 0 {
			if named {
				breaches = append(breaches,
					fmt.Sprintf("%s: budgeted %gms but saw no traffic", ep, budget))
			}
			continue
		}
		if e.P99Ms > budget {
			breaches = append(breaches,
				fmt.Sprintf("%s: p99 %.3fms over budget %gms", ep, e.P99Ms, budget))
		}
	}
	for ep, budget := range budgets {
		if ep == "default" {
			continue
		}
		if _, ok := rep.Endpoints[ep]; !ok {
			breaches = append(breaches,
				fmt.Sprintf("%s: budgeted %gms but saw no traffic", ep, budget))
		}
	}
	sort.Strings(breaches)
	return breaches
}
