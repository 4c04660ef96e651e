# Local targets mirror .github/workflows/ci.yml step for step so a
# green `make ci` locally means a green CI run.

GO ?= go

.PHONY: all build vet fmt-check test race race-stress fuzz-smoke bench check docs-check aimlint e2ebench-check lint ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race stress: ten race-detector passes over the code several
# goroutines reach at once — the serving cache's singleflight slots,
# the HTTP drain gate racing concurrent submits, the plan store's
# concurrent loads and executes, the simulator's one wave executor
# at five chunk shapes, and spatial sessions racing to build one
# drop-response table. One -race pass can miss an interleaving that
# ten catch.
race-stress:
	$(GO) test -race -count=10 -run 'TestCache|TestHTTPGracefulDrain|TestHTTPDrainUnderConcurrentSubmits' ./internal/serve
	$(GO) test -race -count=10 -run TestStoreConcurrentGets ./internal/planstore
	$(GO) test -race -count=10 -run TestPackedFidelityParallelMatchesSerial ./internal/sim
	$(GO) test -race -count=10 -run TestSpatialTableConcurrentFirstUse ./internal/irdrop

# Fuzz smoke: a few seconds per native fuzz target on the three
# hostile input boundaries — the HTTP submit decoder, the scenario-mix
# parser, and the plan-store container decoder (whose bytes arrive
# from disk, where anything can have happened to them) — plus the
# bulk Bernoulli fill, whose bits every pinned table depends on and
# which must match per-draw Bernoulli calls for any p, length and
# generator offset. PRs 2–6 each fixed a panic at an input boundary;
# this keeps the corpus growing without paying a long fuzz campaign in
# CI. The LHR proximal tuner is fuzzed too: its per-call table must
# return the per-code search's answer for any code, width, window and
# penalty. So is the one offline pass, quant.OptimizeLayer: it must
# equal the hand-written Quantize → LHR → ShiftWeights composition for
# any seeded tensor, width, window, λ, LHR switch and power-of-two δ.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzSubmitDecode' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzParseMix' -fuzztime 10s ./cmd/aimserve
	$(GO) test -run '^$$' -fuzz 'FuzzPlanDecode' -fuzztime 10s ./internal/planstore
	$(GO) test -run '^$$' -fuzz 'FuzzFillBernoulli' -fuzztime 10s ./internal/xrand
	$(GO) test -run '^$$' -fuzz 'FuzzProximalTune' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz 'FuzzOptimizeLayer' -fuzztime 10s ./internal/quant

# Bench smoke: one iteration of the Fig. 3 regeneration proves the
# benchmark harness wires up, and one iteration of every internal
# micro-benchmark keeps each one compiling and running (including the
# guards some carry, such as BenchmarkServeRestartWarmDisk's
# compiles=0/diskHits=1 check) without paying full benchmark time.
# Timed claims come from e2ebench (bash e2ebench/run.sh); run any
# micro-benchmark for numbers with go test -run '^$$' -bench <name>.
bench:
	$(GO) test -bench=Fig3 -benchtime=1x -run '^$$' .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Integrity gate: aimcheck over the pin manifest and a
# freshly-populated plan-cache directory must verify (exit 0) — then
# one deliberate corruption per artifact class, each of which must
# flip the exit code to 1. See scripts/check_smoke.sh.
check:
	@./scripts/check_smoke.sh

# Docs gate: every internal package (and command) must carry a package
# doc comment, every relative link in ARCHITECTURE.md and README.md
# must resolve to a real file, CHANGES.md carries exactly one
# sequential "PR <n>:" line per PR, and ISSUE.md keeps its structural
# headers.
docs-check:
	@./scripts/docs_check.sh

# Static-analysis gate: aimlint's six determinism/API-discipline rules
# over the whole module must exit 0, then seeded violations in a temp
# tree must each flip the exit code to 1. See scripts/lint_smoke.sh.
aimlint:
	@./scripts/lint_smoke.sh

# Benchmark-module gate: e2ebench is a nested module (it has its own
# go.mod), so `go build ./...` and `go vet ./...` at the root never see
# it. Vetting and testing it here keeps an internal API change from
# breaking the end-to-end benchmark while every other step stays green.
e2ebench-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

lint: vet fmt-check docs-check aimlint

ci: build lint e2ebench-check race race-stress fuzz-smoke bench check
