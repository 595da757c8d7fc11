package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/gen"
)

// TestSoakCleanSeeds: a short clean soak succeeds and reports its
// seed count.
func TestSoakCleanSeeds(t *testing.T) {
	var out strings.Builder
	cfg := config{seeds: 15, size: "small"}
	if err := soak(cfg, &out); err != nil {
		t.Fatalf("clean soak failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 15 seeds") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

// TestSoakDetectsInjectedBug: with -inject the soak must find the
// divergence, print a shrunk repro, and succeed (self-test mode).
func TestSoakDetectsInjectedBug(t *testing.T) {
	var out strings.Builder
	cfg := config{seeds: 200, size: "small", inject: "member-source"}
	if err := soak(cfg, &out); err != nil {
		t.Fatalf("injected bug not handled: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "parallel-equivalence") {
		t.Errorf("expected parallel-equivalence failure, got: %s", s)
	}
	if !strings.Contains(s, "repro program") {
		t.Errorf("expected shrunk repro in output, got: %s", s)
	}
	if !strings.Contains(s, "detected: harness works") {
		t.Errorf("expected self-test success line, got: %s", s)
	}
}

// TestSoakRejectsBadFlags: unknown sizes, rules and oracles are
// errors, and a zero budget is rejected.
func TestSoakRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := soak(config{seeds: 1, size: "huge"}, &out); err == nil {
		t.Error("unknown size accepted")
	}
	if err := soak(config{seeds: 1, size: "small", inject: "no-such-rule"}, &out); err == nil {
		t.Error("unknown inject rule accepted")
	}
	if err := soak(config{seeds: 1, size: "small", only: "no-such-oracle"}, &out); err == nil {
		t.Error("unknown oracle accepted")
	}
	if err := soak(config{size: "small"}, &out); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestSoakDurationBudget: a duration-only soak terminates.
func TestSoakDurationBudget(t *testing.T) {
	var out strings.Builder
	cfg := config{seeds: 0, duration: 2 * time.Second, size: "small"}
	done := make(chan error, 1)
	go func() { done <- soak(cfg, &out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("duration soak failed: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("duration soak did not terminate")
	}
}

// TestSoakShrinksEveryOracle: a failure of an oracle that writes to
// disk shrinks like any other. The fake row fails on any world holding
// at least k asserts, so the repro must hold exactly k.
func TestSoakShrinksEveryOracle(t *testing.T) {
	const k = 3
	saved := check.Oracles
	t.Cleanup(func() { check.Oracles = saved })
	check.Oracles = append(slices.Clip(saved), check.Oracle{Name: "fake-disk", Cost: check.World,
		Run: func(w *gen.World, _ check.Options) error {
			path := filepath.Join(t.TempDir(), "program")
			if err := os.WriteFile(path, []byte(w.Program()), 0o644); err != nil {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if n := strings.Count(string(b), "\nassert "); n >= k {
				return fmt.Errorf("%d asserts", n)
			}
			return nil
		}})

	var out strings.Builder
	err := soak(config{seeds: 1, size: "small", only: "fake-disk"}, &out)
	if err == nil || !strings.Contains(err.Error(), "fake-disk") {
		t.Fatalf("soak returned %v, want the fake oracle's failure\n%s", err, out.String())
	}
	if want := fmt.Sprintf("(%d asserts)", k); !strings.Contains(out.String(), want) {
		t.Fatalf("repro not shrunk to %d asserts:\n%s", k, out.String())
	}
}
