GO ?= go

.PHONY: all build vet test race check check-benchmark check-churn check-obs check-repl check-scale check-search crash fuzz load-smoke soak

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Churn oracles: the differential harness over high-churn schedules
# (interleaved assert/retract/toggle bursts, shared and disjoint
# relationship classes), driving the dependency-eviction and
# delete-propagation paths, and their shrinking, plus the E10c
# acceptance test under -race; then the backward matcher's goldens
# (answers and subgoal traffic), bounded-matching and subgoal-cache
# tests under -race.
check-churn:
	$(GO) run ./cmd/lsdb-check -churn -seeds 12
	$(GO) test -race -count=1 -run 'TestRunCleanOnChurnWorlds|TestChurnWorldsShrink|TestE10cWarmRetention' ./internal/check .
	$(GO) test -race -count=1 -run 'Golden|Bounded|Subgoal' ./internal/rules

# Keyword-search correctness: the search-vs-scan differential (index
# answers must equal a brute-force store scan, full ranking, exact
# float equality) across seeds and churn schedules, the ranking-quality
# acceptance gate, the /search endpoint contract, and the query
# tokenizer fuzz target — the racy parts under -race.
check-search:
	$(GO) run ./cmd/lsdb-check -search -seeds 150
	$(GO) test -race -count=1 -run 'TestSearchVsScan|TestSearch|TestTokenize|TestNavigatePagination|TestTryPagination' ./internal/check ./internal/search ./internal/serve
	$(GO) test -count=1 -run 'TestE12RankingQuality' ./internal/search
	$(GO) test -run xxx -fuzz FuzzTokenize -fuzztime 5s ./internal/search

# Observability suite: the metrics registry and trace recorder unit
# tests, the metric-contract and admission-control workload pins, and
# the serving layer's /metrics, /stats, /batch and ?trace=1 endpoint
# tests — all under -race, plus go vet over the new packages.
check-obs:
	$(GO) vet ./internal/obs ./internal/serve
	$(GO) test -race ./internal/obs ./internal/serve ./cmd/lsdbd
	$(GO) test -race -run 'TestMetricContract|TestAdmissionControlContract|TestCacheStatsRace|TestMetricsRegistered|TestRebuildCounters|TestMatchBoundedTrace|TestTrace' . ./internal/rules

# Multi-tenant load smoke: a short lsdb-load run against an
# in-process lsdbd (generated tenant worlds, seeded browse sessions)
# must achieve nonzero throughput with zero non-429 errors.
load-smoke:
	$(GO) run ./cmd/lsdb-load -smoke -tenants 2 -workers 2 -duration 2s
	$(GO) run ./cmd/lsdb-load -smoke -tenants 1 -workers 8 -duration 1s -max-inflight 2

# Durability crash fault injection: sweeps hundreds of byte-accurate
# crash points through the WAL, checkpointing and compaction paths and
# asserts recovery never loses an acknowledged-durable commit.
crash:
	$(GO) test -race -count=1 -run 'TestCrash' ./internal/check

# Torn-replication oracle: the acceptance sweep. 75 fault points per
# scenario per seed across four scenarios (stream drops, follower
# crashes, bootstrap faults, primary crashes) = 300+ byte-accurate
# points under -race, each checked for the prefix, recoverability and
# closure invariants. REPLPOINTS=8 for a quick pass.
REPLPOINTS ?= 75
check-repl:
	LSDB_REPL_POINTS=$(REPLPOINTS) $(GO) test -race -count=1 -run 'TestReplScan|TestCutTransport|TestReplFailure' ./internal/check
	$(GO) test -race -count=1 ./internal/repl
	$(GO) test -race -count=1 -run 'TestRepl|TestRecoverLog' ./internal/serve
	$(GO) test -count=1 -run 'TestE11' ./internal/serve
	$(GO) test -count=1 -run 'TestLoadFollowerTarget' ./cmd/lsdb-load

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

# Differential soak: random worlds through every oracle in
# internal/check. SEEDS=5000 or SOAKFLAGS='-duration 10m' to go deeper.
SEEDS ?= 200
SOAKFLAGS ?=
soak:
	$(GO) run ./cmd/lsdb-check -seeds $(SEEDS) $(SOAKFLAGS)

# Sealed-vs-mutable differential on a Zipf scale world, with the
# concurrent probe goroutines under the race detector. SCALEFACTS=1000000
# for a million-fact run.
SCALEFACTS ?= 200000
check-scale:
	LSDB_SCALE_FACTS=$(SCALEFACTS) $(GO) test -race -count=1 -run TestSealedVsMutableScale ./internal/check
	$(GO) run ./cmd/lsdb-check -seeds 10 -scale $(SCALEFACTS)

# The benchmark is measured against the parent commit unedited, so a
# perf PR may not touch it: a product-API change that stops it from
# compiling (it calls Store.Clone, Seal, IndexStats, Match, Has,
# EstimateCount, Engine.Closure, Warm, MatchBounded, CacheStats on the
# live build) must fail here, not in the driver.
check-benchmark:
	$(GO) vet ./benchmark && $(GO) test ./benchmark

# Tier-1 verification plus the race detector, repeated runs of the
# packages whose tests have had timing dependence, a short soak, and
# a brief pass over every fuzz target.
check: build vet test race
	$(GO) test -count=3 . ./internal/serve ./internal/store ./internal/search ./internal/check
	$(MAKE) check-benchmark
	$(MAKE) check-obs
	$(MAKE) load-smoke
	$(MAKE) crash
	$(MAKE) check-repl REPLPOINTS=8
	$(MAKE) soak SEEDS=50
	$(MAKE) check-churn
	$(MAKE) check-scale SCALEFACTS=100000
	$(MAKE) check-search
	$(MAKE) fuzz FUZZTIME=5s
