// Package sim is the chip-level runtime simulator: it executes a
// compiled workload on the PIM chip cycle by cycle, driving the input
// toggle process, the Eq. 2 IR-drop model with monitor noise, the
// IR-Booster level adjusters (Algorithm 2), the MacroSet stall/
// recompute pipeline (Fig. 11), and the V-f/power models — and reports
// the paper's evaluation metrics: worst/average IR-drop and mitigation,
// per-macro power and efficiency gain, effective TOPS, failure counts
// and delay cycles, plus the §6.6/Fig. 17 traces.
package sim

import (
	"context"
	"fmt"
	"math"

	"aim/internal/compiler"
	"aim/internal/irdrop"
	"aim/internal/pim"
	"aim/internal/runner"
	"aim/internal/vf"
)

// Runtime holds the Execute-side knobs: the ones that never reach the
// compiler, so one compiled plan serves every setting of them. Options
// and core.Pipeline embed it rather than copying its fields, a serving
// request converts to it, and Validate is the only check of its
// values.
type Runtime struct {
	// Beta is Algorithm 2's β (cycles); the paper's reference point is
	// 50, and Run treats β <= 0 as 50.
	Beta int
	// Parallel bounds the worker pool that shards the wave schedule:
	// 0 means one worker per CPU (GOMAXPROCS), 1 runs every wave on
	// the calling goroutine, N > 1 uses N workers. Every wave draws
	// from its own xrand shard stream, so the result is bit-identical
	// for any worker count — parallelism is purely a wall-clock knob.
	Parallel int
	// Fidelity selects the modelling tier: AnalyticToggles (default,
	// rtog = flip-intensity × HR, scalar Eq. 2 drops), PackedToggles
	// (the word-wise Eq. 1 engine over synthetic packed weight banks)
	// or SpatialPDN (packed activity setting the power-delivery
	// mesh's drop field once per cycle-window, drops read from each
	// group's floorplan tiles).
	Fidelity Fidelity
	// SpatialWindow is the SpatialPDN solve cadence in cycles (0 =
	// DefaultSpatialWindow). Within a window the solved field is held,
	// like the §5.5.2 monitors' sampling period; smaller windows track
	// activity more tightly at proportionally more solver time.
	SpatialWindow int
	// SpatialSkipMV arms the SpatialPDN window-skip gate: a window
	// whose injection map implies less than this many millivolts of
	// drop change since the last solved map (converted through the
	// analytic model's mV-per-Rtog sensitivity, which is calibrated
	// against this same PDN) holds the previous field instead of
	// solving. 0 — the default — solves every window, the byte-stable
	// reference behaviour every pinned experiment runs;
	// irdrop.DefaultSpatialSkipMV is the calibrated opt-in value.
	// Results stay bit-identical for any worker count at any setting.
	SpatialSkipMV float64
	// SpatialAdaptive adapts the solve cadence to activity variance:
	// quiet stretches double the window (up to 8× the base), loud ones
	// halve it (down to every cycle). The schedule is a deterministic
	// function of the activity vector — no RNG draw moves — so results
	// remain bit-identical across worker counts. False keeps the fixed
	// window, the determinism reference the manifest pins.
	SpatialAdaptive bool
}

// Validate rejects knob values that cannot mean anything: a negative
// worker count, an unknown fidelity tier, a negative spatial window,
// and a negative or non-finite skip threshold. Zero values are valid
// and select defaults, as is any β (β <= 0 falls back to 50).
func (r Runtime) Validate() error {
	if r.Parallel < 0 {
		return fmt.Errorf("negative parallel %d (0 = default, 1 = serial)", r.Parallel)
	}
	if !r.Fidelity.Valid() {
		return fmt.Errorf("unknown fidelity %d (want %v, %v or %v)",
			int(r.Fidelity), AnalyticToggles, PackedToggles, SpatialPDN)
	}
	if r.SpatialWindow < 0 {
		return fmt.Errorf("negative spatial window %d (0 = default)", r.SpatialWindow)
	}
	if r.SpatialSkipMV < 0 || math.IsNaN(r.SpatialSkipMV) || math.IsInf(r.SpatialSkipMV, 0) {
		return fmt.Errorf("spatial skip threshold %v mV (want a finite value >= 0)", r.SpatialSkipMV)
	}
	return nil
}

// Options configures a run.
type Options struct {
	// Runtime carries β, the worker count, the fidelity tier and the
	// spatial tier's cadence knobs.
	Runtime
	// CyclesPerWave is how many cycles each scheduled wave is simulated
	// for (its Rounds multiplier weights the aggregate).
	CyclesPerWave int
	// Mode selects sprint or low-power pair selection.
	Mode vf.Mode
	// UseBooster enables IR-Booster; false runs the DVFS baseline.
	UseBooster bool
	// Aggressive enables Algorithm 2's aggressive-level adjustment;
	// false pins groups at their software-guided safe level.
	Aggressive bool
	// ToggleMean/ToggleSigma parameterize the per-cycle input flip
	// intensity process (clipped normal).
	ToggleMean, ToggleSigma float64
	// Seed drives all stochastic components.
	Seed int64
	// TraceWave, when >= 0, records per-cycle traces for that wave.
	// DefaultOptions leaves it at -1: a served report carries no
	// traces, and the callers that plot them (Fig. 17, aimtrace) set
	// it to 0.
	TraceWave int
	// Warm, when non-nil, pools the per-chunk scratch across Run calls
	// (a serving runtime executing many requests) at every worker
	// count; results are bit-identical either way.
	Warm *WarmState
}

// DefaultOptions returns the reference configuration for a workload
// class: transformer token streams toggle more than post-ReLU conv
// feature streams, which is what makes their baseline IR-drop higher
// (paper Fig. 3).
func DefaultOptions(transformer bool, mode vf.Mode) Options {
	o := Options{
		Runtime: Runtime{Beta: 50}, CyclesPerWave: 400, Mode: mode,
		UseBooster: true, Aggressive: true,
		ToggleMean: 0.54, ToggleSigma: 0.16,
		Seed: 1, TraceWave: -1,
	}
	if transformer {
		o.ToggleMean, o.ToggleSigma = 0.68, 0.17
	}
	return o
}

// DVFSOptions is the no-AIM hardware baseline.
func DVFSOptions(transformer bool, mode vf.Mode) Options {
	o := DefaultOptions(transformer, mode)
	o.UseBooster = false
	o.Aggressive = false
	return o
}

// Result aggregates a run.
type Result struct {
	Cycles       int64
	UsefulCycles int64
	Failures     int
	// AvgMacroPowerMW is the mean power of occupied macros.
	AvgMacroPowerMW float64
	// TOPS is the effective chip throughput.
	TOPS float64
	// WorstDropMV / AvgDropMV summarize the IR-drop over the run.
	WorstDropMV, AvgDropMV float64
	// WorstWeightOpDropMV is the worst drop among macro groups running
	// only weight-stationary operators — the "within a macro" figure
	// of §6.6 (attention QKT/SV operands cannot be optimized offline
	// and are reported separately).
	WorstWeightOpDropMV float64
	// Mitigation is 1 − WorstDrop/SignoffWorst.
	Mitigation float64
	// WeightOpMitigation is 1 − WorstWeightOpDrop/SignoffWorst.
	WeightOpMitigation float64
	// DelayFactor is total cycles over stall-free cycles (≥ 1).
	DelayFactor float64
	// AvgLevelRtog is the mean in-force level (as Rtog fraction),
	// weighted over occupied groups and cycles — the "mitigation
	// ability" axis of Fig. 18 derives from it.
	AvgLevelRtog float64
	// SpatialSolve summarizes the SpatialPDN tier's drop-estimation work,
	// weighted by wave Rounds like Cycles (so solves-per-cycle ratios
	// are meaningful). Zero at the other fidelity tiers. A nonzero
	// Saturated is the signal that the solver's iteration budget is
	// clipping accuracy.
	SpatialSolve irdrop.SolveStats
	// Traces from the designated wave (nil if disabled): worst group
	// drop (mV), total chip current (A), and bump voltage (V).
	DropTraceMV  []float64
	CurrentTrace []float64
	VoltageTrace []float64
}

// guardSigma: the monitor flags IRFailure when the observed drop
// exceeds the level's sign-off drop by this many noise sigmas.
const guardSigma = 2.5

// DefaultSpatialWindow is the SpatialPDN mesh-solve cadence: one
// warm-started solve every this many cycles. Four cycles matches the
// VCO monitor integration window, and benchmarks show it keeps the
// spatial tier within the ≤5x-of-PackedToggles wall-clock budget.
const DefaultSpatialWindow = 4

// Run executes the compiled workload. The wave schedule is sharded
// over a bounded worker pool (see Options.Parallel): each wave is an
// independent unit of simulation seeded with its own xrand shard
// stream, and the per-wave results are merged in schedule order, so
// every field of the Result is bit-identical no matter how many
// workers execute the shards.
//
// Waves are grouped into contiguous chunks — one for a single worker,
// else a couple per worker so stragglers still balance — and each
// chunk reuses one waveScratch across its waves, cutting the
// synthetic-bank allocation churn without touching a single RNG draw.
func Run(c *compiler.Compiled, cfg pim.Config, opt Options) Result {
	if opt.Beta <= 0 {
		opt.Beta = 50
	}
	if opt.CyclesPerWave <= 0 {
		opt.CyclesPerWave = 400
	}
	m := irdrop.ModelFor(cfg.Kind)
	table := vf.NewTable(m)
	power := vf.DefaultPowerModel()

	workers := runner.Workers(opt.Parallel, len(c.Waves))
	// One worker runs the schedule as one chunk (none when it is
	// empty); more take two chunks each: enough slack to rebalance
	// uneven waves, coarse enough that scratch reuse still pays.
	chunks := min(1, len(c.Waves))
	if workers > 1 {
		chunks = min(workers*2, len(c.Waves))
	}
	waves := make([]waveResult, len(c.Waves))
	runner.Do(context.Background(), chunks, workers, func(ci int) error {
		scratch := opt.Warm.get()
		defer opt.Warm.put(scratch)
		lo, hi := ci*len(c.Waves)/chunks, (ci+1)*len(c.Waves)/chunks
		for wi := lo; wi < hi; wi++ {
			rng := scratch.shardRNG(opt.Seed, "sim/"+c.Net.Name, wi)
			waves[wi] = runWave(c.Waves[wi], cfg, m, table, power, opt, rng, wi == opt.TraceWave, scratch)
		}
		return nil
	})

	var agg aggregate
	for wi, res := range waves {
		agg.add(res, float64(c.Waves[wi].Rounds))
		if wi == opt.TraceWave {
			agg.dropTrace = res.dropTrace
			agg.currentTrace = res.currentTrace
			agg.voltageTrace = res.voltageTrace
		}
	}
	return agg.result(m)
}

// waveResult carries one wave's raw accounting.
type waveResult struct {
	cycles, useful  int64
	failures        int
	powerSum        float64 // occupied-macro-mW × cycles
	macroCycles     float64 // occupied macros × cycles
	topsSum         float64 // per-cycle TOPS accumulation
	worstDrop       float64
	worstWeightDrop float64
	dropSum         float64
	dropCount       float64
	levelRtogSum    float64
	levelCount      float64
	solve           irdrop.SolveStats
	dropTrace       []float64
	currentTrace    []float64
	voltageTrace    []float64
}

// aggregate folds the Rounds-weighted wave results of a run; the one
// field it adds is the cycle weight of the TOPS average.
type aggregate struct {
	waveResult
	topsWeight float64
}

func (a *aggregate) add(r waveResult, weight float64) {
	a.cycles += int64(weight * float64(r.cycles))
	a.useful += int64(weight * float64(r.useful))
	a.failures += int(weight * float64(r.failures))
	a.powerSum += weight * r.powerSum
	a.macroCycles += weight * r.macroCycles
	a.topsSum += weight * r.topsSum
	a.topsWeight += weight * float64(r.cycles)
	if r.worstDrop > a.worstDrop {
		a.worstDrop = r.worstDrop
	}
	if r.worstWeightDrop > a.worstWeightDrop {
		a.worstWeightDrop = r.worstWeightDrop
	}
	a.dropSum += weight * r.dropSum
	a.dropCount += weight * r.dropCount
	a.levelRtogSum += weight * r.levelRtogSum
	a.levelCount += weight * r.levelCount
	// Solve counters weight like cycles and failures: int truncation of
	// the weighted count, the convention the aggregate test pins.
	a.solve.Solves += int64(weight * float64(r.solve.Solves))
	a.solve.Skips += int64(weight * float64(r.solve.Skips))
	a.solve.VCycles += int64(weight * float64(r.solve.VCycles))
	a.solve.Saturated += int64(weight * float64(r.solve.Saturated))
}

func (a *aggregate) result(m irdrop.Model) Result {
	res := Result{
		Cycles:              a.cycles,
		UsefulCycles:        a.useful,
		Failures:            a.failures,
		WorstDropMV:         a.worstDrop,
		WorstWeightOpDropMV: a.worstWeightDrop,
		SpatialSolve:        a.solve,
		DropTraceMV:         a.dropTrace,
		CurrentTrace:        a.currentTrace,
		VoltageTrace:        a.voltageTrace,
	}
	if a.macroCycles > 0 {
		res.AvgMacroPowerMW = a.powerSum / a.macroCycles
	}
	if a.topsWeight > 0 {
		res.TOPS = a.topsSum / a.topsWeight
	}
	if a.dropCount > 0 {
		res.AvgDropMV = a.dropSum / a.dropCount
	}
	if a.levelCount > 0 {
		res.AvgLevelRtog = a.levelRtogSum / a.levelCount
	}
	res.Mitigation = 1 - res.WorstDropMV/m.SignoffWorstMV()
	res.WeightOpMitigation = 1 - res.WorstWeightOpDropMV/m.SignoffWorstMV()
	if a.useful > 0 {
		res.DelayFactor = float64(a.cycles) / float64(a.useful)
	} else {
		res.DelayFactor = 1
	}
	return res
}
