# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race race bench bench-smoke bench-vet bench-index index-smoke repro repro-quick examples vet lint lint-json lint-advisory fuzz-smoke fmt fmt-check cover ci profile

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (internal/lint): lock discipline on
# annotated fields, context propagation, map-order determinism, dropped
# errors. Fails on any diagnostic; suppress only with a justified
# //nolint:microlint/<analyzer> comment (see README "Static analysis").
lint:
	$(GO) run ./cmd/microlint ./...

# Same diagnostics as `lint` but as a JSON report on stdout (the file CI
# uploads as an artifact), including the per-analyzer wall-time table
# from the worker-pool runner. `-only`/`-skip` narrow the analyzer set,
# e.g. `go run ./cmd/microlint -only durcheck,publishcheck ./...`.
lint-json:
	$(GO) run ./cmd/microlint -timing ./... > microlint.json || true
	@cat microlint.json

# Non-blocking advisory lane: racecheck in suggestion mode proposes
# `// microlint:guarded-by <mu>` annotations for fields it proves are
# consistently locked but unannotated. Always exits 0; CI publishes the
# output as an artifact for review, never as a gate.
lint-advisory:
	$(GO) run ./cmd/microlint -advisory ./... | tee microlint-advisory.txt

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Mirror of .github/workflows/ci.yml: `ci` is the fast lane, `race` the
# separate race-detector lane (run both before merging concurrency work).
ci: build vet lint fmt-check test bench-smoke bench-vet index-smoke fuzz-smoke examples

test:
	$(GO) test -vet=all ./...

test-race:
	$(GO) test -vet=all -race ./...

# The CI race lane (its one step runs this target): every test twice
# under the race detector. -count=2 defeats test caching and gives racy
# interleavings a second roll; the reach suite runs once more with
# GOMAXPROCS=4 so its parallel build meets real cross-core
# interleavings, and so do the recency and kb suites, so the recency
# memo's lock-free window hits meet Link's generation bumps across
# cores. The bench quick smoke drives all four BENCHMARK.json workloads
# — links over real HTTP, the ingest firehose across copy-on-swap
# rebuilds, snapshot + warm restart — under the race detector.
race:
	$(GO) test -race -count=2 ./...
	GOMAXPROCS=4 $(GO) test -race ./internal/reach/...
	GOMAXPROCS=4 $(GO) test -race ./internal/recency/... ./internal/kb/...
	cd bench && $(GO) test -race -run TestQuickSmoke ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rot in the bench harness
# without paying for steady-state measurements.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The BENCHMARK.json harness is its own module (bench/go.mod), so
# `go build ./...` and `go test ./...` above never compile it: vet and
# test it here, or a signature it depends on breaks silently. Its
# TestQuickSmoke also runs the restart workload, which byte-compares
# top-k after every snapshot + reopen — the durability gate.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Reach-index construction/size/query benchmark: Go benchmarks for the
# 2-hop build and query hot path, then the JSON artefact BENCH_reach.json
# that EXPERIMENTS.md cites (serial vs parallel build, size delta,
# steady-state query allocations).
# -workers-sweep auto emits one record per worker count (1,2,4) on
# multi-core machines and falls back to the single parallel record on a
# single-CPU box; the wait gate fails the run if merge+barrier ever grows
# back past 25% of the parallel build.
bench-index:
	$(GO) test -run=NONE -bench='BuildTwoHop|TwoHopQuery|ReadTwoHop' -benchmem ./internal/reach
	$(GO) run ./cmd/linkbench -out BENCH_reach.json -workers-sweep auto -max-wait-frac 0.25 index

# CI's quick pass over the same index benchmark, writing no artefact:
# fails if merge + epoch-barrier time climbs back over 25% of the
# parallel build.
index-smoke:
	$(GO) run ./cmd/linkbench -quick -max-wait-frac 0.25 index

# A few seconds of coverage-guided fuzzing per target. Targets are named
# individually: -fuzz accepts only one match per package. This is the one
# list of fuzz targets; CI's "Fuzz smoke" step runs this target. Each run
# is bounded by an execution count (-fuzztime=Nx), not a duration: with a
# duration the coordinator's exec count can stop rising after its first
# report while the clock runs out. N is sized to about 5 s per target on a
# 2-vCPU host. The exec count does not cover minimisation of each new
# interesting input (60 s by default, during which the count stands
# still), so every target also bounds that by an exec count
# (-fuzzminimizetime=Nx), and a fresh fuzz cache stays near the budget.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzTokenize -fuzztime=40000x -fuzzminimizetime=1000x ./internal/textutil
	$(GO) test -run=NONE -fuzz=FuzzNormalizePhrase -fuzztime=150000x -fuzzminimizetime=1000x ./internal/textutil
	$(GO) test -run=NONE -fuzz=FuzzWithinEditDistance -fuzztime=150000x -fuzzminimizetime=1000x ./internal/textutil
	$(GO) test -run=NONE -fuzz=FuzzDecodeLinkRequest -fuzztime=35000x -fuzzminimizetime=1000x ./internal/httpapi
	$(GO) test -run=NONE -fuzz=FuzzCFGBuild -fuzztime=10000x -fuzzminimizetime=1000x ./internal/lint
	$(GO) test -run=NONE -fuzz=FuzzLocksetTransfer -fuzztime=50000x -fuzzminimizetime=1000x ./internal/lint
	$(GO) test -run=NONE -fuzz=FuzzScoresMatchOracle -fuzztime=30000x -fuzzminimizetime=1000x ./internal/recency
	$(GO) test -run=NONE -fuzz=FuzzRFromMatchesR -fuzztime=5000x -fuzzminimizetime=1000x ./internal/reach
	$(GO) test -run=NONE -fuzz=FuzzReadTwoHop -fuzztime=75000x -fuzzminimizetime=1000x ./internal/reach
	$(GO) test -run=NONE -fuzz=FuzzReadSegment -fuzztime=50000x -fuzzminimizetime=1000x ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=40000x -fuzzminimizetime=1000x ./internal/store
	$(GO) test -run=NONE -fuzz=FuzzReadManifest -fuzztime=30000x -fuzzminimizetime=1000x ./internal/store

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/linkbench all

repro-quick:
	$(GO) run ./cmd/linkbench -quick all

# Run the four example programs end to end; CI's "Examples" step runs
# this target, since no test compiles or runs a main package.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/personalized
	$(GO) run ./examples/newsburst
	$(GO) run ./examples/streamfeed

# Profile the linking hot path: the Fig. 5(a) per-mention link benchmark
# under CPU and heap profiling (see EXPERIMENTS.md, "Profiling").
profile:
	$(GO) test -run=NONE -bench=BenchmarkFig5aLinkTimeOurs -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo ""
	@echo "profiles written to ./cpu.pprof and ./mem.pprof — inspect with:"
	@echo "  go tool pprof -top cpu.pprof"
	@echo "  go tool pprof -top mem.pprof"
