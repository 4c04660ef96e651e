package aim

import (
	"context"
	"fmt"
	"time"

	"aim/internal/core"
	"aim/internal/experiments"
	"aim/internal/model"
	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/vf"
)

// Mode selects the IR-Booster operating policy.
type Mode string

const (
	// Sprint maximizes throughput: high-frequency V-f pairs.
	Sprint Mode = "sprint"
	// LowPower maximizes energy efficiency: low-voltage V-f pairs.
	LowPower Mode = "low-power"
)

func (m Mode) internal() (vf.Mode, error) {
	switch m {
	case Sprint:
		return vf.Sprint, nil
	case LowPower, "":
		return vf.LowPower, nil
	default:
		return 0, fmt.Errorf("aim: unknown mode %q (want %q or %q)", m, Sprint, LowPower)
	}
}

// Fidelity selects the simulator's modelling tier — the three-rung
// ladder of activity and IR-drop fidelity. It is a runtime knob: plans
// compile identically at every tier, so a serving runtime switches
// tiers per request without recompiling.
type Fidelity string

const (
	// FidelityAnalytic (the default) models Rtog as flip-intensity ×
	// HR and every group's drop as the scalar Eq. 2 of its own
	// activity — the fast closed-form tier, byte-identical to the
	// historical simulator.
	FidelityAnalytic Fidelity = "analytic"
	// FidelityPacked runs the word-wise Eq. 1 engine over synthetic
	// packed weight banks: per-cycle Rtog carries real binomial
	// cell-level variance; drops stay scalar Eq. 2.
	FidelityPacked Fidelity = "packed"
	// FidelitySpatial adds spatially-resolved IR drops on top of the
	// packed engine: per cycle-window the group activity vector
	// becomes a die current map, a warm-started multigrid V-cycle
	// solves the power-delivery mesh, and each group's drop is read
	// from its own floorplan tiles — real neighbour coupling instead
	// of the analytic noise term.
	FidelitySpatial Fidelity = "spatial"
)

func (f Fidelity) internal() (sim.Fidelity, error) {
	fid, err := sim.ParseFidelity(string(f))
	if err != nil {
		return 0, fmt.Errorf("aim: %w", err)
	}
	return fid, nil
}

// Networks lists the workloads of the evaluation zoo.
func Networks() []string { return model.Names() }

// DisableWDS, set as Config.WDSDelta, runs the pipeline with the WDS
// pass switched off (LHR and mapping still apply). The zero value of
// WDSDelta means "default δ", so disabling needs an explicit sentinel.
const DisableWDS = core.DisableWDS

// Config selects a workload and an AIM deployment.
type Config struct {
	// Network is one of Networks().
	Network string
	// Mode is Sprint or LowPower (default LowPower).
	Mode Mode
	// Beta is IR-Booster's stability horizon β (default 50).
	Beta int
	// Bits is the quantization width (default 8, range 2..16).
	Bits int
	// WDSDelta is the weight-distribution-shift δ: 0 means the default
	// 16, DisableWDS switches the pass off, anything else must be a
	// power of two.
	WDSDelta int
	// Seed drives every stochastic component (default 1).
	Seed int64
	// Parallel bounds the simulator's wave-sharding worker pool:
	// 0 uses one worker per CPU (a Server treats 0 as serial: it gets
	// its parallelism from concurrent requests), 1 runs every wave on
	// the calling goroutine, N > 1 uses N workers. Results are
	// bit-identical for any value — the knob only trades wall-clock
	// time for cores.
	// Negative values are rejected.
	Parallel int
	// Fidelity selects the simulator's modelling tier (default
	// FidelityAnalytic). Unknown values are rejected with an error,
	// never silently substituted.
	Fidelity Fidelity
	// SpatialWindow is the FidelitySpatial mesh-solve cadence in cycles
	// (0 = the default 4). Within a window the solved voltage field is
	// held, like the paper's monitor sampling period. Negative values
	// are rejected.
	SpatialWindow int
	// SpatialSkipMV arms the spatial tier's incremental window-skip
	// gate: a window whose activity implies less than this many
	// millivolts of drop change since the last solved window reuses the
	// previous field instead of solving. 0 (the default) solves every
	// window — the reference behaviour; ~3 mV (a tenth of the spatial
	// calibration band) is the calibrated opt-in value. Negative or
	// non-finite values are rejected. Results stay bit-identical for
	// any worker count at any setting.
	SpatialSkipMV float64
	// SpatialAdaptive adapts the spatial solve cadence to activity
	// variance: quiet stretches lengthen the window, swings shorten it.
	// The schedule is a deterministic function of the simulated
	// activity, so determinism across worker counts is preserved.
	SpatialAdaptive bool
}

// Result summarizes a full AIM run against the DVFS baseline.
type Result struct {
	Network string
	Mode    Mode
	// HRBaseline and HROptimized are the element-weighted average
	// Hamming rates before and after LHR+WDS.
	HRBaseline, HROptimized float64
	// MitigationPct is the worst-case IR-drop reduction on
	// weight-stationary macros versus the 140 mV sign-off worst case.
	MitigationPct float64
	// WorstDropMV is the optimized worst drop in millivolts.
	WorstDropMV float64
	// EfficiencyGain is the TOPS/W improvement factor.
	EfficiencyGain float64
	// MacroPowerMW is the average per-macro power under AIM.
	MacroPowerMW float64
	// BaselinePowerMW is the DVFS per-macro power.
	BaselinePowerMW float64
	// TOPS is the effective throughput under AIM; Speedup is versus the
	// 256-TOPS baseline.
	TOPS, Speedup float64
	// Quality is the surrogate task quality after optimization
	// (accuracy % or perplexity, per workload).
	Quality float64
	// Failures counts IRFailure events during the simulated run.
	Failures int
	// DelayFactor is total cycles over stall-free cycles (≥ 1).
	DelayFactor float64
}

// Run compiles the workload through the full AIM pipeline (LHR + WDS +
// HR-aware mapping), executes it on the simulated 7nm 256-TOPS chip
// with IR-Booster, and compares against the worst-case DVFS baseline.
// It validates cfg and builds its pipeline through the same path a
// Server takes for a submitted request, so both reject the same
// configs and answer the same Result.
func Run(cfg Config) (Result, error) {
	req, err := request(cfg)
	if err != nil {
		return Result{}, err
	}
	p, err := serve.Pipeline(req)
	if err != nil {
		return Result{}, err
	}
	// The one documented difference from a served request: Run's 0
	// means one worker per CPU, where a Server runs each request
	// serially. Results are bit-identical either way.
	p.Parallel = cfg.Parallel
	net, err := model.ByName(cfg.Network, serve.ZooSeed)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(p.Run(net), cfg.Mode), nil
}

// resultFrom flattens a core report into the public Result. It is the
// single conversion both the one-shot Run path and the serving runtime
// use, so a served request answers with exactly what a cold Run
// returns.
func resultFrom(rep core.Report, mode Mode) Result {
	if mode == "" {
		mode = LowPower
	}
	return Result{
		Network:         rep.Net.Name,
		Mode:            mode,
		HRBaseline:      rep.Baseline.HR.Average,
		HROptimized:     rep.AIM.HR.Average,
		MitigationPct:   100 * rep.Mitigation(),
		WorstDropMV:     rep.AIM.Result.WorstWeightOpDropMV,
		EfficiencyGain:  rep.EfficiencyGain(),
		MacroPowerMW:    rep.AIM.Result.AvgMacroPowerMW,
		BaselinePowerMW: rep.Baseline.Result.AvgMacroPowerMW,
		TOPS:            rep.AIM.Result.TOPS,
		Speedup:         rep.Speedup(),
		Quality:         rep.AIM.Quality,
		Failures:        rep.AIM.Result.Failures,
		DelayFactor:     rep.AIM.Result.DelayFactor,
	}
}

// ExperimentIDs lists the reproducible tables and figures of the
// paper's evaluation in order (fig3 … overhead).
func ExperimentIDs() []string { return experiments.IDs() }

// Experiment regenerates one table/figure of the paper and returns it
// rendered as text. Valid ids are ExperimentIDs().
func Experiment(id string, seed int64) (string, error) {
	run, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("aim: unknown experiment %q (want one of %v)", id, experiments.IDs())
	}
	if seed == 0 {
		seed = 2025
	}
	return run(seed).Render(), nil
}

// ExperimentSet selects a batch of experiments for RunExperiments.
type ExperimentSet struct {
	// Pattern is an unanchored regular expression over experiment ids
	// (the semantics of go test -run); empty selects every experiment.
	Pattern string
	// IDs, when non-empty, overrides Pattern with an explicit id list
	// run in the given order.
	IDs []string
	// Seed drives every stochastic component (default 2025, the
	// registry's reference seed).
	Seed int64
	// Parallel bounds the worker pool fanning out over experiments:
	// 0 means one worker per CPU, 1 dispatches experiments one at a
	// time. Inner shards (networks, β points, simulation waves) use
	// their own GOMAXPROCS-bounded pools regardless — set GOMAXPROCS=1
	// for a fully serial run. The rendered tables are byte-identical
	// for any setting.
	Parallel int
	// Progress, when non-nil, is called as each experiment finishes
	// (completion order, not registry order) with its wall-clock time.
	// Calls are serialized.
	Progress func(id string, elapsed time.Duration)
}

// ExperimentResult is one regenerated table or figure.
type ExperimentResult struct {
	// ID is the experiment identifier ("fig3", "table2", ...).
	ID string
	// Text is the rendered table.
	Text string
}

// RunExperiments regenerates a set of the paper's tables and figures
// concurrently over a bounded worker pool and returns them in
// registry order (or the order of set.IDs). Every stochastic stream is
// derived from (seed, shard name), so for a fixed seed the output is
// byte-identical no matter how many workers run — parallelism only
// changes wall-clock time. Cancelling ctx stops experiments that have
// not started and returns ctx.Err().
func RunExperiments(ctx context.Context, set ExperimentSet) ([]ExperimentResult, error) {
	ids := set.IDs
	if len(ids) == 0 {
		var err error
		ids, err = experiments.MatchIDs(set.Pattern)
		if err != nil {
			return nil, fmt.Errorf("aim: %w", err)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("aim: no experiments match %q (want a pattern over %v)", set.Pattern, experiments.IDs())
		}
	}
	seed := set.Seed
	if seed == 0 {
		seed = 2025
	}
	tables, err := experiments.RunSet(ctx, ids, seed, set.Parallel, set.Progress)
	if err != nil {
		return nil, fmt.Errorf("aim: %w", err)
	}
	out := make([]ExperimentResult, len(tables))
	for i, tbl := range tables {
		out[i] = ExperimentResult{ID: tbl.ID, Text: tbl.Render()}
	}
	return out, nil
}
