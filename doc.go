// Package aim is a from-scratch reproduction of "AIM: Software and
// Hardware Co-design for Architecture-level IR-drop Mitigation in
// High-performance PIM" (Zhang et al., ISCA 2025).
//
// IR-drop — the gap between the ideal supply voltage and what circuit
// cells actually receive — is especially severe in high-performance
// SRAM processing-in-memory (PIM) chips, where thousands of compute
// units switch in the same cycle. AIM attacks the problem at the
// architecture level instead of with costly circuit-level guardbands:
//
//   - Rtog (Eq. 1) and HR (Eq. 3) connect the workload to IR-drop:
//     per-cycle toggle activity of the bit-serial input streams ANDed
//     with the stored weight bits, and its input-independent upper
//     bound, the Hamming rate of the stored weights.
//   - LHR (§5.3) is a differentiable regularizer that pulls quantized
//     weights toward low-Hamming codes with negligible accuracy cost.
//   - WDS (§5.4) shifts the weight distribution toward small positive
//     codes (δ ∈ {8, 16} for INT8) and compensates exactly after the
//     matmul with dedicated shift-compensator hardware.
//   - IR-Booster (§5.5) converts the reclaimed Rtog margin into lower
//     voltage or higher frequency per macro group, guarded by on-die
//     VCO IR monitors and an IRFailure-driven recompute pipeline.
//   - HR-aware task mapping (§5.6) arranges macro tasks so groups are
//     not dragged down by their worst-HR member.
//
// The package exposes the end-to-end pipeline on a simulated 7nm
// 256-TOPS PIM chip (16 macro groups × 4 macros), a synthetic model
// zoo mirroring the paper's six evaluation networks, and a harness
// regenerating every table and figure of the paper's evaluation; see
// the Run, Optimize, Experiment and RunExperiments entry points, the
// examples/ directory, and DESIGN.md / EXPERIMENTS.md.
//
// Simulation and experiment regeneration shard over a bounded worker
// pool (internal/runner): the simulator splits its wave schedule
// across workers and RunExperiments fans independent experiments out
// concurrently. Every shard draws from its own named internal/xrand
// stream and results merge in deterministic index order, so for a
// fixed seed the output is bit-identical for any worker count —
// parallelism only changes wall-clock time (see Config.Parallel and
// ExperimentSet.Parallel).
//
// The Eq. 1 data path is bit-packed end to end: input bit rows,
// toggle vectors and stored weight-bit planes all live as []uint64
// words (cell k at bit k%64 of word k/64), so a per-cycle Rtog is a
// word-wise AND + popcount — on the default 64-bank × 128-cell macro,
// ~20 word operations against the bit-sliced per-line Hamming counts
// instead of a banks×cells byte walk (~500x on the macro Rtog cycle;
// see the BenchmarkRtog micro-benchmarks in internal/pim). The packed
// path is
// proven bit-identical to the retained one-byte-per-bit reference
// implementations, and the toggle sources draw their RNG in cell
// order, so fixed-seed outputs are unchanged across the packed
// refactor.
//
// The power-delivery mesh behind the Fig. 16 layout maps solves
// through a pluggable solver subsystem (internal/pdn): a geometric
// multigrid V-cycle with red-black checkerboard-parallel smoothing and
// a warm-start cache replaces thousands of Gauss-Seidel sweeps with a
// handful of cycles (~54x on the 64x64 sign-off solve; a 512x512
// production floorplan — pdn.ScaledFloorplan, 64x the unknowns —
// solves in less wall-clock than the reference needs for 64x64; see
// the BenchmarkPDN micro-benchmarks in internal/pdn). The original
// relaxation loop
// is retained as the reference implementation on the same stencil
// kernel, bit-identical to the historical solver, and keeps serving
// the default die so Fig. 16 tables and cmd/irmap output are pinned
// byte-for-byte; multigrid equivalence within the rendering quantum is
// enforced by table-driven tests across grid sizes, pad pitches, warm
// and cold starts, and sweep worker counts.
//
// Drop estimation is a pluggable layer (irdrop.DropEstimator) behind
// a three-tier fidelity ladder, selected per run or per request by
// Config.Fidelity: FidelityAnalytic (scalar Eq. 2 per group — the
// byte-stable default), FidelityPacked (word-wise Eq. 1 activity,
// scalar drops), and FidelitySpatial, which couples the multigrid PDN
// solver into the cycle loop: macro groups carry floorplan
// coordinates (mapping.Placement), each wave shard owns a
// warm-started solver session, and once per cycle-window the group
// activity vector becomes a die current map whose solved field yields
// every group's drop from its own tiles — real neighbour coupling in
// place of the analytic noise term, at ~4x the packed tier's
// wall-clock (see BenchmarkSimSpatial in internal/sim).
// Fidelity is a runtime knob outside the plan-cache key, so one
// compiled plan serves every tier; the spatial tier is bit-identical
// for any worker count, and its per-group drops agree with the
// analytic model within the documented calibration band
// (irdrop.SpatialCalibrationBandMV) on the default die. The
// fig16live experiment compares the tiers live under IR-Booster on
// the 64x64 and 256x256 dies.
//
// For the paper's serving scenario (PIM chips serving language models
// under a latency target or power envelope) the pipeline splits into
// an offline Compile phase and a runtime Execute phase, and the
// Server type amortizes the former: a concurrency-safe, stampede-free
// plan cache keyed by (network, mode, bits, δ, seed) compiles each
// deployment point exactly once, an admission queue groups concurrent
// Submit calls into per-plan batches, and an executor pool runs them
// over warm simulator state. A served Result is identical to a cold
// Run of the same Config, and for a fixed request list the aggregate
// is byte-identical for any worker count. With the cache warm a
// repeated request skips straight to execution — ~25x faster than a
// cold Run on resnet18 and ~57x on the LLM deployment points, where
// the HR-aware mapping SA dominates compilation (see the BenchmarkServe
// micro-benchmarks in internal/serve, and cmd/aimserve for a
// closed-loop load generator with Poisson arrivals over the full zoo).
//
// The plan cache survives the process when ServerOptions.PlanCacheDir
// is set (CLI: -plan-cache-dir on aimc and aimserve): compiled plans
// persist to a content-addressed store (internal/planstore) keyed by
// the sha256 of exactly the compile inputs plus a code-version
// generation, with a decoded-plan LRU above a pluggable directory
// backend below. A restarted server — or another replica sharing the
// directory — loads each plan instead of recompiling it (~10x faster
// on resnet18; see BenchmarkServeRestartWarmDisk in internal/serve),
// and a decoded plan executes byte-identically to a freshly compiled
// one for any worker count. Bumping the code-version generation makes
// every stale entry unreachable at once, and corrupt or stale files
// silently fall back to recompilation — persistence failures never
// fail serving. See ARCHITECTURE.md for the repository map and the
// README for the on-disk format and measured restart numbers.
//
// The Server is a four-layer network stack: Server.Handler exposes an
// HTTP/JSON front door (POST /v1/submit, GET /v1/metrics and
// /v1/healthz, graceful Server.Drain), an admission layer enforces
// per-client token-bucket rate limits (ServerOptions.RatePerClient)
// and sheds load explicitly with 429 + Retry-After once the bounded
// queue fills, and the scheduling layer runs an SLO-driven degradation
// ladder (ServerOptions.TargetP95): requests submitted with auto
// fidelity are served at the highest tier whose observed p95 fits the
// target, stepping spatial → packed → analytic under overload and back
// up with headroom. Because fidelity stays outside the plan-cache key,
// a tier switch is a free cache hit — under a 4x traffic burst the
// ladder trades fidelity for latency with exactly one compile (see
// `aimserve serve` and `aimserve -target` for hosting and driving the
// API).
//
// The system verifies its own artifacts. cmd/aimcheck (engine:
// internal/check) re-derives the sha256 pins in
// manifest/experiments.json — the single machine-readable source of
// truth for the 22 experiment tables and the irmap renderings, loaded
// by the byte-pin tests instead of scattered hash literals and
// regenerated only by `aimcheck -write` — walks plan-store
// directories (content address, versions, decode → re-encode
// byte-identity, orphaned temp files), exiting non-zero on any
// finding; CI runs it plus a
// deliberate-corruption smoke as `make check`. On the fault side,
// planstore.NewFaulty wraps any backend with a deterministic
// misbehavior schedule (bit flips, truncations, stale rewrites, write
// failures, latency) under which the serving stack provably keeps
// answering byte-identically with exact Stats accounting, and the
// container decoder is natively fuzzed: bytes that decode must
// re-encode to the same bytes, and no bytes may panic it.
//
// The determinism invariants themselves are enforced statically.
// cmd/aimlint (engine: internal/lint, pure go/ast + go/types)
// type-checks every package from source and rejects the patterns that
// break them — wall-clock reads and math/rand imports in
// deterministic code, map iteration feeding rendered bytes or
// unsorted accumulators, goroutines outside the deterministic pool,
// panics reachable from this package's exported API, and stdout
// writes from libraries. Legitimate exceptions (serving metrics, the
// limiter's injectable clock, measured bench latencies) carry
// //aimlint:allow annotations whose reasons are mandatory and whose
// staleness is itself a finding. CI gates on `make aimlint`: the tree
// must lint clean and seeded violations must flip the exit code.
package aim
