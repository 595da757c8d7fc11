package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	lsdb "repro"
	"repro/internal/gen"
	"repro/internal/repl"
	"repro/internal/serve"
)

// TestLoadSmoke is the in-process version of `make load-smoke`: a
// short multi-tenant run must achieve nonzero throughput with zero
// non-429 errors, report server-side request counts for the session
// mix's endpoints, and produce sane latency quantiles (p50 <= p95 <=
// p99, all positive where traffic flowed).
func TestLoadSmoke(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		Tenants:  2,
		Workers:  2,
		Duration: 500 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %g, want > 0", rep.Throughput)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (report %+v)", rep.Errors, rep)
	}
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	// Without a quota nothing should be rejected.
	if rep.Rejected429 != 0 {
		t.Errorf("429s without a quota: %d", rep.Rejected429)
	}
	// Each tenant served traffic.
	if len(rep.PerTenant) != 2 {
		t.Fatalf("per-tenant map = %+v", rep.PerTenant)
	}
	for tenant, n := range rep.PerTenant {
		if n == 0 {
			t.Errorf("tenant %s served no requests", tenant)
		}
	}
	// Quantiles come from the scraped histograms and must be ordered.
	var sawLatency bool
	for ep, e := range rep.Endpoints {
		if e.Requests == 0 {
			continue
		}
		if e.P50Ms < 0 || e.P50Ms > e.P95Ms || e.P95Ms > e.P99Ms {
			t.Errorf("%s: quantiles out of order: p50=%g p95=%g p99=%g", ep, e.P50Ms, e.P95Ms, e.P99Ms)
		}
		if e.P99Ms > 0 {
			sawLatency = true
		}
	}
	if !sawLatency {
		t.Error("no endpoint reported a positive p99")
	}
}

// TestLoadAdmissionPressure: with a tiny in-flight quota and an
// unthrottled worker pool, admission control must reject some
// requests as 429s — and those must not count as errors.
func TestLoadAdmissionPressure(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		Tenants:     1,
		Workers:     8,
		Duration:    500 * time.Millisecond,
		Seed:        11,
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	if rep.Rejected429 == 0 {
		t.Error("8 workers against quota 1 produced no 429s")
	}
	if rep.Throughput <= 0 {
		t.Error("no successful requests under pressure")
	}
	// The client-observed 429s must agree with the server-side
	// rejected counters.
	var serverRejected uint64
	for _, e := range rep.Endpoints {
		serverRejected += e.Rejected
	}
	if serverRejected != rep.Rejected429 {
		t.Errorf("server rejected %d, client saw %d", serverRejected, rep.Rejected429)
	}
}

// TestLoadFollowerTarget drives follower-target mode against an
// in-test replicated pair: reads go to the replica with per-worker
// ?min_lsn= watermarks, writes go through the primary, and 412s (if
// the replica lags past its wait bound) are reported separately from
// errors.
func TestLoadFollowerTarget(t *testing.T) {
	pdb, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(t.TempDir(), "p.log")})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New()
	pt, err := ps.AddTenant(serve.DefaultTenant, pdb, serve.Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	pt.SetPrimary(repl.NewPrimary(pdb, repl.PrimaryOptions{}))
	primary := httptest.NewServer(ps.Mux())
	defer primary.Close()
	defer pdb.Close()

	// Preload the primary with the world RunLoad derives its session
	// mix from, so every read targets entities that exist.
	const seed = 7
	w := gen.Generate(seed, gen.Medium())
	for _, op := range w.Ops {
		if op.Kind == gen.OpAssert {
			if err := pdb.Assert(op.S, op.R, op.T); err != nil {
				t.Fatal(err)
			}
		}
	}

	fdb, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := serve.New()
	ft, err := fs.AddTenant(serve.DefaultTenant, fdb, serve.Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := repl.NewFollower(fdb, repl.Config{
		Primary: primary.URL,
		Dir:     t.TempDir(),
		ID:      "load-replica",
		WaitMs:  100,
		Backoff: 5 * time.Millisecond,
		Lock:    ft.SnapLocker(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ft.SetFollower(fl, 2*time.Second)
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	replica := httptest.NewServer(fs.Mux())
	defer replica.Close()
	if _, ok := fl.WaitLSN(pdb.LSN(), 30*time.Second); !ok {
		t.Fatalf("replica never caught up (stats %+v)", fl.Stats())
	}

	rep, err := RunLoad(LoadConfig{
		Tenants:    1,
		Workers:    2,
		Duration:   500 * time.Millisecond,
		Seed:       seed,
		BaseURL:    primary.URL,
		ReplicaURL: replica.URL,
		WriteEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (report %+v)", rep.Errors, rep)
	}
	if rep.Writes == 0 {
		t.Fatal("follower-target run issued no primary writes")
	}
	if rep.Throughput <= 0 {
		t.Fatal("no successful requests")
	}
	// The primary's registry must show the write traffic and the
	// replica's the read traffic; both are folded into the report.
	if e := rep.Endpoints["facts"]; e.Requests < rep.Writes {
		t.Errorf("primary served %d /facts, client issued %d writes", e.Requests, rep.Writes)
	}
	reads := uint64(0)
	for ep, e := range rep.Endpoints {
		if ep != "facts" {
			reads += e.Requests
		}
	}
	if reads == 0 {
		t.Error("no reads served")
	}
	// Every write's LSN was eventually readable: the replica ends at
	// the primary's watermark.
	if _, ok := fl.WaitLSN(pdb.LSN(), 10*time.Second); !ok {
		t.Errorf("replica did not converge after the run (stats %+v)", fl.Stats())
	}

	// RunLoad refuses a replica without a primary to write through.
	if _, err := RunLoad(LoadConfig{ReplicaURL: replica.URL}); err == nil {
		t.Fatal("ReplicaURL without BaseURL must be rejected")
	}
}
