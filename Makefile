# Local targets mirror .github/workflows/ci.yml step for step so a
# green `make ci` locally means a green CI run.

GO ?= go

.PHONY: all build vet fmt-check test race fuzz-smoke bench bench-rtog bench-pdn bench-serve bench-spatial bench-planstore bench-http check docs-check aimlint e2ebench-check lint ci

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

# Fuzz smoke: a few seconds per native fuzz target on the three
# hostile input boundaries — the HTTP submit decoder, the scenario-mix
# parser, and the plan-store container decoder (whose bytes arrive
# from disk, where anything can have happened to them) — plus the
# bulk Bernoulli fill, whose bits every pinned table depends on and
# which must match per-draw Bernoulli calls for any p, length and
# generator offset. PRs 2–6 each fixed a panic at an input boundary;
# this keeps the corpus growing without paying a long fuzz campaign in
# CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzSubmitDecode' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzParseMix' -fuzztime 10s ./cmd/aimserve
	$(GO) test -run '^$$' -fuzz 'FuzzPlanDecode' -fuzztime 10s ./internal/planstore
	$(GO) test -run '^$$' -fuzz 'FuzzFillBernoulli' -fuzztime 10s ./internal/xrand

# Bench smoke: one iteration of the Fig. 3 regeneration proves the
# benchmark harness wires up without paying full benchmark time.
bench:
	$(GO) test -bench=Fig3 -benchtime=1x -run '^$$' .

# bench_json distils `go test -bench -count N` output into a JSON
# series, keeping the FASTEST run per benchmark (min-of-N): single
# shots on a shared box swing several percent, and a perf trajectory
# wants the machine's capability, not its load spikes. The original
# ns/op string is preserved verbatim. A benchmark reporting a sat/op
# metric column (the spatial benches' saturated-solve rate) carries its
# WORST observed rate as "saturated" — accuracy debt must not hide in a
# lucky pass. A benchmark that calls b.SetBytes carries the MB/s of
# its fastest run as "mb_per_s". Setting BENCH_RATIO=key=NumBench/DenBench
# appends one headline quotient of the min-of-N numbers to the document.
define bench_json
awk -v ratio="$$BENCH_RATIO" 'BEGIN { n = 0 } \
     /^Benchmark/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
       mb = ""; for (f=3; f<NF; f++) if ($$(f+1) == "MB/s") mb=$$f; \
       if (!(name in best) || $$3+0 < best[name]) { best[name]=$$3+0; ns[name]=$$3; iters[name]=$$2; mbs[name]=mb } \
       passes[name]++; \
       for (f=3; f<NF; f++) if ($$(f+1) == "sat/op") { hasSat[name]=1; if ($$f+0 > sat[name]) sat[name]=$$f+0 } \
       if (!(name in seen)) { seen[name]=1; order[++n]=name } } \
     END { printf "{\n  \"benchmarks\": ["; \
       for (i=1;i<=n;i++) { nm=order[i]; if (i>1) printf ","; \
         printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"passes\": %d", nm, iters[nm], ns[nm], passes[nm]; \
         if (mbs[nm] != "") printf ", \"mb_per_s\": %s", mbs[nm]; \
         if (nm in hasSat) printf ", \"saturated\": %g", sat[nm]; \
         printf "}" } \
       printf "\n  ]"; \
       if (ratio != "") { split(ratio, rp, "="); split(rp[2], ab, "/"); \
         if ((ab[1] in best) && (ab[2] in best) && best[ab[2]] > 0) printf ",\n  \"%s\": %.3f", rp[1], best[ab[1]]/best[ab[2]] } \
       printf "\n}\n" }'
endef

# Perf trajectory: ns/op of the packed vs legacy Rtog hot path, the
# bulk toggle fill that feeds it (one 128-cell bank's input lines per
# op), and the end-to-end sim fidelity modes, rendered as
# BENCH_rtog.json — the artifact CI uploads on every run so
# regressions show up as a series.
# Three full passes, interleaved by invocation rather than go test's
# -count (which repeats each benchmark consecutively and lets slow
# machine drift bias whichever name runs later); the shell loop exits
# on the first bench failure.
bench-rtog:
	@rm -f BENCH_rtog.txt
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkRtog' -benchtime 1000x ./internal/pim >> BENCH_rtog.txt || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkFillBernoulli$$' -benchtime 100000x ./internal/xrand >> BENCH_rtog.txt || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkSim(Packed(Bytes|Parallel)?|Analytic)$$' -benchtime 5x ./internal/sim >> BENCH_rtog.txt || exit 1; \
	done
	@$(bench_json) BENCH_rtog.txt > BENCH_rtog.json
	@rm -f BENCH_rtog.txt
	@cat BENCH_rtog.json

# PDN solver trajectory: the retained Gauss-Seidel reference vs the
# multigrid V-cycle on the 64x64 sign-off solve, the warm-start sweep
# pattern, and the production die scales up to 512x512 — emitted as
# BENCH_pdn.json next to BENCH_rtog.json. The acceptance bars:
# BenchmarkPDNMultigrid at least 10x under BenchmarkPDNGaussSeidel,
# and BenchmarkPDNMultigrid512 under BenchmarkPDNGaussSeidel.
bench-pdn:
	@rm -f BENCH_pdn.txt
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkPDN' -benchtime 10x ./internal/pdn >> BENCH_pdn.txt || exit 1; \
	done
	@$(bench_json) BENCH_pdn.txt > BENCH_pdn.json
	@rm -f BENCH_pdn.txt
	@cat BENCH_pdn.json

# Serving-runtime trajectory: cold compile (what every one-shot
# aim.Run pays), the same request answered from a warm plan cache, and
# the batched steady-state throughput of the mixed list — emitted as
# BENCH_serve.json beside the Rtog and PDN series. The acceptance bar:
# BenchmarkServeColdCompile at least 5x over BenchmarkServeCachedRequest.
bench-serve:
	@rm -f BENCH_serve.txt
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkServe(ColdCompile|CachedRequest)$$' -benchtime 5x ./internal/serve >> BENCH_serve.txt || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkServeBatchedThroughput$$' -benchtime 3x ./internal/serve >> BENCH_serve.txt || exit 1; \
	done
	@$(bench_json) BENCH_serve.txt > BENCH_serve.json
	@rm -f BENCH_serve.txt
	@cat BENCH_serve.json

# Spatial-tier trajectory: the SpatialPDN fidelity (per-cycle-window
# warm multigrid solves of the die PDN) against the PackedToggles
# baseline it builds on — serial, parallel, and the incremental
# configuration (calibrated skip gate + adaptive cadence) — plus the
# per-window estimator micro-benches (cold / warm / skipped), emitted
# as BENCH_spatial.json beside the Rtog, PDN and serve series. The
# document carries spatial_packed_ratio = BenchmarkSimSpatialIncr /
# BenchmarkSimPacked; the acceptance bar is <= 2.0 (stretch 1.5), and
# any nonzero saturated rate in the sat/op columns fails aimcheck.
bench-spatial:
	@rm -f BENCH_spatial.txt
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkSim(Packed|Spatial(Parallel|Incr)?)$$' -benchtime 3x ./internal/sim >> BENCH_spatial.txt || exit 1; \
		$(GO) test -run '^$$' -bench 'BenchmarkSpatialEstimate' -benchtime 50x ./internal/irdrop >> BENCH_spatial.txt || exit 1; \
	done
	@BENCH_RATIO='spatial_packed_ratio=BenchmarkSimSpatialIncr/BenchmarkSimPacked'; \
	$(bench_json) BENCH_spatial.txt > BENCH_spatial.json
	@rm -f BENCH_spatial.txt
	@cat BENCH_spatial.json

# Plan-store trajectory: a simulated process restart against a warm
# persistent plan store (read+decode instead of compile) beside the
# cold-compile and warm-memory bounds it sits between, plus the raw
# codec halves and a store read that adopts an already-held network,
# for both networks a restart loads (with MB/s of encoded plan) —
# emitted as BENCH_planstore.json beside the other
# series. The acceptance bars: BenchmarkServeRestartWarmDisk at most
# 10x BenchmarkServeCachedRequest and at least 5x under
# BenchmarkServeColdCompile.
bench-planstore:
	@rm -f BENCH_planstore.txt
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkServe(ColdCompile|CachedRequest|RestartWarmDisk)$$' -benchtime 5x ./internal/serve >> BENCH_planstore.txt || exit 1; \
		$(GO) test -run '^$$' -bench 'Benchmark(Plan(Encode|Decode)|StoreGet)$$' -benchtime 20x ./internal/planstore >> BENCH_planstore.txt || exit 1; \
	done
	@$(bench_json) BENCH_planstore.txt > BENCH_planstore.json
	@rm -f BENCH_planstore.txt
	@cat BENCH_planstore.json

# Network-serving trajectory: the HTTP front door under a measured
# traffic ramp — a steady phase near half the spatial-tier capacity,
# then a 4x burst, with the identical burst replayed against a
# ladder-off control server. BENCH_http.json carries p50/p95/p99,
# shed-rate and the per-tier serve mix for each phase (min-of-3 by
# burst p95). The acceptance bars: compiles == 1 (every tier of every
# run served one compiled plan) and the laddered burst p95 under the
# ladder-off control's.
bench-http:
	$(GO) run ./cmd/aimserve bench-http -o BENCH_http.json
	@cat BENCH_http.json

# Integrity gate: aimcheck over the pin manifest, a freshly-populated
# plan-cache directory and every committed BENCH_*.json must verify
# (exit 0) — then one deliberate corruption per artifact class, each
# of which must flip the exit code to 1. See scripts/check_smoke.sh.
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

ci: build lint e2ebench-check race bench check
