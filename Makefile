GO ?= go

.PHONY: all build vet test race check check-benchmark fuzz load-smoke soak

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Multi-tenant load smoke: a short lsdb-load run against an
# in-process lsdbd (generated tenant worlds, seeded browse sessions)
# must achieve nonzero throughput with zero non-429 errors.
load-smoke:
	$(GO) run ./cmd/lsdb-load -smoke -tenants 2 -workers 2 -duration 2s
	$(GO) run ./cmd/lsdb-load -smoke -tenants 1 -workers 8 -duration 1s -max-inflight 2

# Native Go fuzzing across every target. FUZZTIME=2m for a longer run;
# go test accepts one fuzz target per invocation, hence the fan-out.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run xxx -fuzz FuzzSnapshot -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz FuzzLogReplay -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz FuzzBuildPostings -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz FuzzParseRule -fuzztime $(FUZZTIME) ./internal/rules
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/factfile
	$(GO) test -run xxx -fuzz FuzzImportCSV -fuzztime $(FUZZTIME) ./internal/factfile
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run xxx -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run xxx -fuzz FuzzBatchMatchesSingle -fuzztime $(FUZZTIME) ./internal/serve

# Differential soak: internal/check's oracle table through lsdb-check.
# SEEDS random worlds through every world oracle, then high-churn and
# medium worlds, a deep pass of the two keyword-search oracles, and the
# replication and scale sweeps under the race detector: REPLPOINTS
# fault points per scenario on seed 1, and sealed-vs-mutable on
# SCALEFACTS-fact Zipf worlds of seeds 1 and 42. SEEDS=5000 or
# SOAKFLAGS='-duration 10m' to go deeper; SCALEFACTS=1000000 for a
# million-fact run. The crash sweep and the smaller replication and
# scale sweeps run in `go test ./internal/check`.
SEEDS ?= 200
SOAKFLAGS ?=
REPLPOINTS ?= 75
SCALEFACTS ?= 200000
soak:
	$(GO) run ./cmd/lsdb-check -seeds $(SEEDS) $(SOAKFLAGS)
	$(GO) run ./cmd/lsdb-check -churn -seeds 12
	$(GO) run ./cmd/lsdb-check -size medium -start 1 -seeds 5
	$(GO) run ./cmd/lsdb-check -only search-vs-scan,search-incremental -seeds 150
	$(GO) run -race ./cmd/lsdb-check -only replication -points $(REPLPOINTS) -start 1 -seeds 1
	$(GO) run -race ./cmd/lsdb-check -only scale -points $(SCALEFACTS) -start 1 -seeds 1
	$(GO) run -race ./cmd/lsdb-check -only scale -points $(SCALEFACTS) -start 42 -seeds 1

# The benchmark is measured against the parent commit unedited, so a
# perf PR may not touch it: a product-API change that stops it from
# compiling (it calls Store.Clone, Seal, IndexStats, Match, Has,
# EstimateCount, Engine.Closure, Warm, MatchBounded, CacheStats on the
# live build) must fail here, not in the driver.
check-benchmark:
	$(GO) vet ./benchmark && $(GO) test ./benchmark

# Tier-1 verification plus the race detector, repeated runs of the
# packages whose tests have had timing dependence, the benchmark's
# compile check, the load smoke, a short soak, and a brief pass over
# every fuzz target.
check: build vet test race
	$(GO) test -count=3 . ./internal/serve ./internal/store ./internal/repl ./internal/search ./internal/check ./internal/rules
	$(MAKE) check-benchmark
	$(MAKE) load-smoke
	$(MAKE) soak SEEDS=50 REPLPOINTS=8 SCALEFACTS=100000
	$(MAKE) fuzz FUZZTIME=5s
