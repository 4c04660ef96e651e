package sim

import (
	"aim/internal/booster"
	"aim/internal/compiler"
	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// groupRun is the per-group runtime state of one wave.
type groupRun struct {
	occupied []int // macro slot → task index (occupied only)
	hrs      []float64
	worstHR  float64
	// weightOnly marks groups hosting exclusively weight-stationary
	// tasks — the macros §6.6's "IR-drop within a macro" band covers.
	weightOnly bool
	safe       vf.Level
	adj        *booster.LevelAdjuster
	level      vf.Level
	pair       vf.Pair
	tolerated  float64 // mV, the monitor threshold for the current level
	monitor    *irdrop.Monitor
	// active marks the cycle's "any unstalled task" state, staged by
	// the activity pass for the effects pass.
	active bool
}

// runWave simulates one scheduled wave for opt.CyclesPerWave cycles,
// drawing its working buffers from the chunk's scratch (see
// waveScratch); reused or fresh, the buffers never change a result.
//
// Drop estimation goes through the pluggable irdrop.DropEstimator
// layer: each cycle the activity pass stages every occupied group's
// worst Rtog (and its monitor-noise draw), the estimator maps the
// whole activity vector to per-group drops, and the effects pass
// applies monitors, IR-Booster and the metric accounting. The split
// preserves the historical per-group RNG draw order exactly — toggle
// words then one Normal per group — so the analytic and packed tiers
// are bit-identical to the old single-pass loop, while the spatial
// tier gets what it needs: the full group vector in one call, because
// a mesh solve couples every group's drop to all the others' activity.
func runWave(w *compiler.Wave, cfg pim.Config, m irdrop.Model, table *vf.Table, power vf.PowerModel, opt Options, rng *xrand.RNG, trace bool, scratch *waveScratch) waveResult {
	scratch.nextWave()
	tasks := w.Tasks
	numOps := len(w.Plans)

	// The estimator layer. The analytic Model is the default tier;
	// SpatialPDN swaps in the shard's PDN estimator session, evaluated
	// once per cycle-window, with the residual noise sigma replacing
	// NoiseMV (the mesh resolves the placement and coupling effects
	// NoiseMV lumps together).
	var est irdrop.DropEstimator = m
	noiseMV := m.NoiseMV
	window := 1
	var sp *irdrop.Spatial
	if opt.Fidelity == SpatialPDN {
		sp = scratch.spatialEstimator(cfg)
		// A cold field per wave: results must not depend on which wave
		// this shard's session solved before.
		sp.Reset()
		sp.SkipThreshold = 0
		if opt.SpatialSkipMV > 0 {
			// The analytic model is calibrated against this same PDN
			// (TestModelMatchesPDN), so its mV-per-Rtog sensitivity
			// converts the caller's millivolt budget into the Rtog
			// units the injection-map change metric is measured in.
			sp.SkipThreshold = opt.SpatialSkipMV / m.DynCoeffMV
		}
		// The mesh sweeps and the wave shards compete for the same
		// cores: a sharded run keeps each shard's session serial, while
		// a one-worker run (Parallel == 1) lets its single session
		// batch smoothing sweeps through internal/runner. Bit-identical
		// either way (the solver's checkerboard invariant).
		if opt.Parallel == 1 {
			sp.SetSolverWorkers(0)
		} else {
			sp.SetSolverWorkers(1)
		}
		est = sp
		noiseMV = m.NoiseMV * irdrop.SpatialResidualNoiseFrac
		if window = opt.SpatialWindow; window <= 0 {
			window = DefaultSpatialWindow
		}
	}
	// Adaptive cadence state: the window stretches and shrinks as a
	// deterministic function of how far the clamped activity vector
	// moved between estimations — never of time, load or RNG — so the
	// schedule is identical on every shard assignment.
	adaptive := sp != nil && opt.SpatialAdaptive
	baseWindow := window
	var lastEstAct []float64
	estimated := false
	nextEst := 0

	// Build group states from the wave's mapping.
	groups, engines := scratch.groupSlices(cfg.Groups)
	groupHRs := w.Map.GroupHRs(tasks)
	groupsWithOp := make([][]int, numOps) // op → groups hosting it
	for g := 0; g < cfg.Groups; g++ {
		if len(groupHRs[g]) == 0 {
			continue
		}
		gr := &groupRun{hrs: groupHRs[g]}
		for _, hr := range gr.hrs {
			if hr > gr.worstHR {
				gr.worstHR = hr
			}
		}
		gr.safe = booster.SafeLevelFor(gr.hrs)
		if opt.UseBooster {
			if opt.Aggressive {
				gr.adj = booster.NewLevelAdjuster(gr.safe, opt.Beta)
				gr.level = gr.adj.Level()
			} else {
				gr.level = gr.safe
			}
		} else {
			gr.level = vf.DVFSLevel
		}
		if opt.UseBooster {
			gr.pair = table.PairFor(gr.level, opt.Mode)
		} else {
			// Traditional DVFS holds the worst-case sign-off point.
			gr.pair = table.DVFS()
		}
		gr.tolerated = m.Estimate(gr.level.Rtog()) + guardSigma*noiseMV
		gr.monitor = irdrop.NewMonitor(vf.NominalV*1000, gr.tolerated)
		groups[g] = gr
	}
	for g := range groups {
		if groups[g] != nil {
			groups[g].weightOnly = true
		}
	}
	for macro, ti := range w.Map.Assign {
		if ti == mapping.Empty {
			continue
		}
		g := macro / cfg.MacrosPerGroup
		groups[g].occupied = append(groups[g].occupied, ti)
		if tasks[ti].InputDetermined {
			groups[g].weightOnly = false
		}
		op := tasks[ti].OpID
		found := false
		for _, gg := range groupsWithOp[op] {
			if gg == g {
				found = true
				break
			}
		}
		if !found {
			groupsWithOp[op] = append(groupsWithOp[op], g)
		}
	}

	// PackedToggles and SpatialPDN fidelity: build each occupied
	// group's synthetic packed-bank engine. Construction draws from
	// the wave RNG in group then occupied-task order, so results stay
	// deterministic under wave sharding.
	if opt.Fidelity != PackedToggles && opt.Fidelity != SpatialPDN {
		engines = nil
	} else {
		for g, gr := range groups {
			if gr == nil {
				continue
			}
			taskHRs := scratch.taskHRBuf(len(gr.occupied))
			for i, ti := range gr.occupied {
				taskHRs[i] = tasks[ti].HR
			}
			engines[g] = newGroupToggles(cfg, taskHRs, rng, scratch)
		}
	}

	var res waveResult
	if trace {
		res.dropTrace = make([]float64, 0, opt.CyclesPerWave)
		res.currentTrace = make([]float64, 0, opt.CyclesPerWave)
		res.voltageTrace = make([]float64, 0, opt.CyclesPerWave)
	}
	opStall := scratch.intSlice(numOps)
	opFailedNow := make([]bool, numOps)
	opUseful := scratch.int64Slice(numOps)
	opFreqSum := scratch.floatSlice(numOps)
	opTasks := scratch.intSlice(numOps)
	for _, t := range tasks {
		opTasks[t.OpID]++
	}
	// Per-cycle estimator staging: group activity in, group drops out,
	// with the monitor-noise draws staged beside them so splitting the
	// loop does not move a single RNG draw.
	act := scratch.floatSlice(cfg.Groups)
	noise := scratch.floatSlice(cfg.Groups)
	drops := scratch.floatSlice(cfg.Groups)
	if adaptive {
		lastEstAct = scratch.floatSlice(cfg.Groups)
	}

	for cyc := 0; cyc < opt.CyclesPerWave; cyc++ {
		p := rng.Normal(opt.ToggleMean, opt.ToggleSigma)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		cyclePower := 0.0
		// Activity pass: engines draw this cycle's toggles, tasks
		// accumulate power at the group's in-force V-f pair, and each
		// occupied group stages its worst Rtog plus one noise draw.
		// Per-group RNG consumption (toggle words, then one Normal) is
		// draw-for-draw the historical single-pass order.
		for g, gr := range groups {
			act[g] = -1
			if gr == nil {
				continue
			}
			// Per-macro activity: stalled ops idle (leakage only).
			var eng *groupToggles
			if engines != nil {
				eng = engines[g]
				eng.next(p, rng)
			}
			worstRtog := 0.0
			groupPower := 0.0
			gr.active = false
			for oi, ti := range gr.occupied {
				op := tasks[ti].OpID
				if opStall[op] > 0 {
					groupPower += power.MacroPowerMW(gr.pair, 0) // bubble: leakage only
					continue
				}
				gr.active = true
				var rtog float64
				if eng != nil {
					rtog = eng.rtog(oi)
				} else {
					rtog = p * tasks[ti].HR
				}
				if rtog > worstRtog {
					worstRtog = rtog
				}
				groupPower += power.MacroPowerMW(gr.pair, rtog)
			}
			if eng != nil {
				act[g] = eng.activity()
			} else {
				act[g] = worstRtog
			}
			noise[g] = rng.Normal(0, noiseMV)
			cyclePower += groupPower
			res.powerSum += groupPower
			res.macroCycles += float64(len(gr.occupied))
		}
		// Estimation: the deterministic per-group drops feed the
		// reported metrics; the monitors additionally see the staged
		// cycle noise. The analytic tier re-estimates every cycle; the
		// spatial tier re-solves the mesh once per window and holds the
		// field between solves (the monitor sampling cadence of
		// §5.5.2), which is what lets one warm V-cycle amortize. With a
		// fixed window nextEst advances in constant steps — the exact
		// cyc%window == 0 schedule of the reference path.
		if cyc == nextEst {
			est.EstimateGroups(act, drops)
			if adaptive {
				if estimated {
					window = adaptWindow(window, baseWindow, lastEstAct, act, m)
				}
				estimated = true
				for g := range act {
					lastEstAct[g] = clampRtog(act[g])
				}
			}
			nextEst += window
		}
		// Effects pass: metric accounting, IRFailure monitors and
		// IR-Booster level adjustment, in the historical group order.
		cycleWorstDrop := 0.0
		for g, gr := range groups {
			if gr == nil {
				continue
			}
			drop := drops[g]
			dropNoisy := drop + noise[g]
			if dropNoisy < 0 {
				dropNoisy = 0
			}
			if drop > cycleWorstDrop {
				cycleWorstDrop = drop
			}
			if gr.weightOnly && drop > res.worstWeightDrop {
				res.worstWeightDrop = drop
			}
			res.dropSum += drop
			res.dropCount++
			res.levelRtogSum += gr.level.Rtog()
			res.levelCount++

			fail := false
			if opt.UseBooster && gr.active {
				fail = gr.monitor.Sample(dropNoisy)
			}
			if fail {
				res.failures++
				for _, ti := range gr.occupied {
					opFailedNow[tasks[ti].OpID] = true
				}
			}
			// Level adjustment (Algorithm 2); non-aggressive booster
			// pins the safe level, DVFS pins 100%.
			if opt.UseBooster && opt.Aggressive {
				newLevel := gr.adj.Step(fail, false, 0)
				if newLevel != gr.level {
					gr.level = newLevel
					gr.pair = table.PairFor(gr.level, opt.Mode)
					gr.tolerated = m.Estimate(gr.level.Rtog()) + guardSigma*noiseMV
					gr.monitor.SetToleratedDrop(gr.tolerated)
					// Frequency synchronization (Algorithm 2 lines
					// 11-13) as modelled here: each peer group hosting
					// one of this group's ops takes the sync branch at
					// its own level, which only resets its β stability
					// counter. Its level and V-f pair stay put. The set
					// runs at one frequency because the op-progress
					// loop below clocks each op at the minimum over its
					// hosting groups. Moving peers to the set's level
					// (line 12, L ← L_set) would change pinned results,
					// so it is a deliberate, deferred divergence.
					for _, ti := range gr.occupied {
						for _, og := range groupsWithOp[tasks[ti].OpID] {
							if og != g && groups[og] != nil && groups[og].adj != nil {
								groups[og].adj.Step(false, true, groups[og].level)
							}
						}
					}
				}
			}
		}
		if drop := cycleWorstDrop; drop > res.worstDrop {
			res.worstDrop = drop
		}
		// Fig. 11 recovery: an IRFailure anywhere in a MacroSet stalls
		// the whole set for the Re + Re' waves — once per cycle, no
		// matter how many of its groups failed simultaneously
		// (recoveries overlap).
		for op := 0; op < numOps; op++ {
			if opFailedNow[op] {
				opFailedNow[op] = false
				opStall[op] = recoveryStall(opStall[op])
			}
		}
		// Operator progress and MacroSet frequency sync: an op advances
		// only when not stalled, at the slowest frequency among its
		// hosting groups.
		for op := 0; op < numOps; op++ {
			if opTasks[op] == 0 {
				continue
			}
			f := -1.0
			for _, g := range groupsWithOp[op] {
				if groups[g] == nil {
					continue
				}
				if f < 0 || groups[g].pair.FreqGHz < f {
					f = groups[g].pair.FreqGHz
				}
			}
			if f < 0 {
				f = vf.NominalFreqGHz
			}
			opFreqSum[op] += f
			if opStall[op] > 0 {
				opStall[op]--
			} else {
				opUseful[op]++
			}
		}
		if trace {
			res.dropTrace = append(res.dropTrace, cycleWorstDrop)
			// Chip current proxy: total power over the mean rail voltage.
			railV := vf.NominalV - cycleWorstDrop/1000
			res.currentTrace = append(res.currentTrace, cyclePower/1000/railV)
			res.voltageTrace = append(res.voltageTrace, railV)
		}
	}

	if sp != nil {
		res.solve = sp.TakeStats()
	}
	res.cycles = int64(opt.CyclesPerWave)
	// Effective throughput: task-weighted frequency × useful fraction.
	totalTasks := 0
	weighted := 0.0
	var usefulMin int64 = int64(opt.CyclesPerWave)
	for op := 0; op < numOps; op++ {
		if opTasks[op] == 0 {
			continue
		}
		avgF := opFreqSum[op] / float64(opt.CyclesPerWave)
		usefulFrac := float64(opUseful[op]) / float64(opt.CyclesPerWave)
		weighted += float64(opTasks[op]) * avgF * usefulFrac
		totalTasks += opTasks[op]
		if opUseful[op] < usefulMin {
			usefulMin = opUseful[op]
		}
	}
	if totalTasks > 0 {
		res.topsSum = vf.ChipTOPS(weighted/float64(totalTasks), 1.0) * float64(opt.CyclesPerWave)
	}
	res.useful = usefulMin
	return res
}

// maxRecoveryStall bounds an op's pending recovery cycles against
// pathological pile-up of failures in consecutive cycles.
const maxRecoveryStall = 6

// recoveryStall returns an op's pending stall cycles after an
// IRFailure this cycle: the Re + Re' waves add two, unless the pending
// stall has already reached maxRecoveryStall.
func recoveryStall(pending int) int {
	if pending < maxRecoveryStall {
		return pending + 2
	}
	return pending
}

// Adaptive-cadence thresholds, as implied-drop fractions of the
// spatial calibration band. The controller watches the MEAN absolute
// activity move across groups between the two most recent estimations,
// not the max: per-window toggle noise swings any single group's move
// by the band's own order even in steady state, while the mean — the
// uniform component, exactly the regime DynCoeffMV is calibrated
// against — tracks the workload's real drift. A move implying less
// than the stretch bound doubles the window (every estimate is still a
// fresh converged solve, so a longer window coarsens the drop sampling
// cadence, never a sample's accuracy — and sampling faster than the
// drops move buys nothing the band can see), more than the shrink
// bound halves it (drops moved by the tier's whole accuracy envelope
// inside one window — track them). Between the two the window holds,
// giving the controller hysteresis.
const (
	adaptStretchFrac = 0.3
	adaptShrinkFrac  = 1.0
	// maxAdaptiveWindowFactor caps the stretched window at this
	// multiple of the configured base.
	maxAdaptiveWindowFactor = 8
)

// clampRtog maps a staged activity to the injection domain: idle
// markers (negative) and zero inject nothing, everything else clamps
// to [0, 1] — mirroring exactly what the spatial estimator feeds the
// mesh, so the cadence controller reacts to what the solver would see.
func clampRtog(a float64) float64 {
	if a <= 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// adaptWindow is the cadence controller: a pure function of the
// clamped activity move between the two most recent estimations
// (prev already clamped, cur raw), the current and base window, and
// the model's mV-per-Rtog sensitivity.
func adaptWindow(window, base int, prev, cur []float64, m irdrop.Model) int {
	if len(cur) == 0 {
		return window
	}
	moved := 0.0
	for g := range cur {
		d := clampRtog(cur[g]) - prev[g]
		if d < 0 {
			d = -d
		}
		moved += d
	}
	impliedMV := moved / float64(len(cur)) * m.DynCoeffMV
	switch {
	case impliedMV < adaptStretchFrac*irdrop.SpatialCalibrationBandMV:
		if max := base * maxAdaptiveWindowFactor; window*2 <= max {
			return window * 2
		}
	case impliedMV > adaptShrinkFrac*irdrop.SpatialCalibrationBandMV:
		if window > 1 {
			return window / 2
		}
	}
	return window
}
