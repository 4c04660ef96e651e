package irdrop

import (
	"fmt"

	"aim/internal/pdn"
)

// Spatial-tier calibration constants, shared by the estimator, the
// simulator and the equivalence tests.
const (
	// SpatialCalibrationBandMV bounds how far a spatially-resolved
	// per-group drop may sit from the analytic Eq. 2 estimate of the
	// same activity on the calibrated die (DefaultFloorplan geometry +
	// DefaultActivity) under Eq. 2's own calibration condition —
	// groups driven at similar activity, the regime the runtime
	// simulator produces: edge tiles shed current into the die
	// boundary and resolve below the scalar model, centre tiles absorb
	// their neighbours' return current and resolve near it. The band
	// is what "the bank is a region of stable equivalent resistance"
	// (§4.1) abstracts away; TestSpatialWithinCalibrationBand pins it.
	// Strongly non-uniform activity (one hot group among idle
	// neighbours) can deviate further — that coupling is precisely the
	// information the spatial tier adds.
	SpatialCalibrationBandMV = 30.0

	// SpatialResidualNoiseFrac scales the Eq. 2 NoiseMV term while a
	// spatial estimator is in force: placement and neighbour-region
	// coupling — the bulk of what NoiseMV lumps together — are resolved
	// by the mesh solve, leaving only waveform-level variation.
	SpatialResidualNoiseFrac = 0.4

	// spatialSolveTolV / spatialSolveMaxIter bound each per-window mesh
	// solve on a die of more than maxTableTiles tiles (smaller dies read
	// their drops off the response table and run no per-window solve).
	// Warm-started from the previous window's field a V-cycle count of
	// 1-2 suffices; the first solve of a session converges from cold
	// within the iteration budget.
	spatialSolveTolV    = 1e-4
	spatialSolveMaxIter = 64

	// spatialIncrTolV is the per-cycle convergence tolerance of an
	// incremental session (SkipThreshold > 0) on a die of more than
	// maxTableTiles tiles. The V-cycle contracts error by roughly an
	// order of magnitude per cycle, so stopping at a 1 mV last update
	// leaves ~0.1 mV of true field error — an order under the skip
	// gate's own DefaultSpatialSkipMV budget and two under the
	// calibration band. The reference tolerance buys 10 µV
	// accuracy nothing downstream can observe at one to two extra
	// V-cycles per window; an armed session declines to pay for it.
	spatialIncrTolV = 1e-3

	// DefaultSpatialSkipMV is the calibrated opt-in value for the
	// window-skip gate (Spatial.SkipThreshold carries it in Rtog units
	// after division by the model's mV-per-Rtog sensitivity): a tenth
	// of the calibration band, so holding the previous field across a
	// sub-threshold window perturbs a group's drop by an order of
	// magnitude less than the spatial tier's own accuracy envelope. The
	// mesh is an M-matrix, so a bound on the per-tile injection change
	// rigorously bounds the drop change it can induce anywhere.
	DefaultSpatialSkipMV = SpatialCalibrationBandMV / 10
)

// SolveStats counts one estimator session's drop-estimation work. The
// incremental spatial tier turns windows into skips; these counters are
// what makes that observable — and what surfaces a mesh solver quietly
// saturating its iteration budget, which the pre-stats code discarded.
type SolveStats struct {
	// Solves counts EstimateGroups calls whose drops were computed for
	// the window's own activity — by the response table on a die of at
	// most 16 tiles, by a mesh solve on a larger one.
	Solves int64
	// Skips counts calls answered from the held field: the injection
	// map moved less than SkipThreshold since the last solved window.
	Skips int64
	// VCycles is the total mesh V-cycle count across Solves. It stays
	// 0 on a die the response table serves: the table's own build
	// solves are shared by every session and counted by none.
	VCycles int64
	// Saturated counts solves that exhausted the iteration budget
	// without converging — silent accuracy loss unless watched.
	Saturated int64
}

// Add accumulates o into s.
func (s *SolveStats) Add(o SolveStats) {
	s.Solves += o.Solves
	s.Skips += o.Skips
	s.VCycles += o.VCycles
	s.Saturated += o.Saturated
}

// Spatial is the spatially-resolved DropEstimator: each cycle-window's
// per-group activity sets a die current-injection map, and every
// group's drop is the worst drop over its own floorplan tile of the
// resulting voltage field — so a group's drop depends on where it sits
// and what its neighbours are doing, the physics the analytic Model's
// NoiseMV term only approximates statistically.
//
// On a die of at most 16 tiles (the paper's chip) the field is summed
// from a precomputed per-tile response table, d0 + Σ_t rtog_t·D_t,
// shared by every session over the same die; a window costs tens of
// microseconds and no mesh solve. A larger die runs one warm-started
// multigrid solve per window instead.
//
// A Spatial owns its scratch (and, on a large die, its pdn.Multigrid
// session) and is NOT safe for concurrent use; the simulator hands each
// wave shard its own and Resets it at wave boundaries so results are
// independent of worker count and execution order.
type Spatial struct {
	// SkipThreshold, in Rtog units, arms the window-skip gate: when no
	// tile's injection activity moved by this much or more since the
	// last solved map, EstimateGroups holds the previous field instead
	// of solving (superposition on the M-matrix mesh bounds the drop
	// drift by the threshold times the die's uniform-move sensitivity,
	// DynCoeffMV). The injection metric is the only gate — the solver's
	// pointwise residual is blind to exactly the smooth field error a
	// uniform activity drift induces, so it cannot be trusted to hold.
	// 0 — the default — is the reference behaviour: one solve per call,
	// bit-identical to the pre-incremental estimator.
	SkipThreshold float64

	fp      *pdn.Floorplan
	tileIdx []int // group → floorplan tile index
	act     pdn.ActivityCurrents
	rtog    []float64 // per-tile activity buffer
	// table answers a die of at most maxTableTiles tiles; acc is the
	// per-tile scratch its sums accumulate in. A larger die leaves
	// table nil and solves its injection map cur on mg instead.
	table *responseTable
	acc   []float64
	mg    *pdn.Multigrid
	cur   []float64
	// solvedRtog/haveField are the dirty-state tracking between
	// windows: the per-tile activity of the last map actually solved
	// (not merely seen — comparing against the last seen map would let
	// sub-threshold drift accumulate unboundedly) and whether the held
	// state (solvedRtog for the table, field for the mesh) answers it.
	solvedRtog []float64
	field      []float64 // last solved voltage field (aliases mg's cache)
	haveField  bool
	// solveMaxIter is spatialSolveMaxIter, overridable by tests that
	// need to force a saturated solve.
	solveMaxIter int
	stats        SolveStats
}

// NewSpatial builds a spatial estimator session over a floorplan.
// tileIdx maps each macro group to its floorplan tile (the mapping
// layer's Placement provides it); act supplies the calibrated current
// densities. The floorplan's own Solver field is ignored, so a shared
// geometry-only floorplan (pdn.FloorplanAt) may back many sessions. On
// a die of at most 16 tiles the session reads the process-wide
// response table for (geometry, act), built by the first session to
// ask — 17 cold solves, tens of milliseconds; a larger die gets a
// private warm-started multigrid.
func NewSpatial(fp *pdn.Floorplan, tileIdx []int, act pdn.ActivityCurrents) *Spatial {
	// One group per tile: two groups sharing a tile would silently
	// last-writer-win the injection value in EstimateGroups, making a
	// group's drop depend on slice order instead of physics.
	owner := make([]int, len(fp.GroupTiles))
	for i := range owner {
		owner[i] = -1
	}
	for g, ti := range tileIdx {
		if ti < 0 || ti >= len(fp.GroupTiles) {
			panic(fmt.Sprintf("irdrop: group %d placed on tile %d of %d", g, ti, len(fp.GroupTiles)))
		}
		if og := owner[ti]; og >= 0 {
			panic(fmt.Sprintf("irdrop: groups %d and %d both placed on tile %d", og, g, ti))
		}
		owner[ti] = g
	}
	s := &Spatial{
		fp:           fp,
		tileIdx:      tileIdx,
		act:          act,
		rtog:         make([]float64, len(fp.GroupTiles)),
		solvedRtog:   make([]float64, len(fp.GroupTiles)),
		solveMaxIter: spatialSolveMaxIter,
	}
	if len(fp.GroupTiles) <= maxTableTiles {
		s.table = responseTableFor(fp, act)
		s.acc = make([]float64, s.table.maxCells())
	} else {
		s.mg = pdn.NewMultigrid(fp.Grid)
		s.cur = make([]float64, fp.Grid.W*fp.Grid.H)
	}
	return s
}

// Groups returns how many groups the session places (the length
// EstimateGroups expects).
func (s *Spatial) Groups() int { return len(s.tileIdx) }

// Reset drops the warm-start field and the skip gate's dirty state;
// the next solve converges from the all-Vdd state. The simulator calls
// it at wave boundaries so every wave's solve sequence is
// deterministic no matter which shard ran before on the same session.
// The SolveStats counters survive — they account for the session, not
// a wave.
func (s *Spatial) Reset() {
	if s.mg != nil {
		s.mg.Reset()
	}
	s.haveField = false
}

// SetSolverWorkers bounds the mesh solver's checkerboard sweep fan-out
// over internal/runner: 0 means one worker per CPU, 1 forces serial
// sweeps. The checkerboard invariant makes the solved field
// bit-identical for any value — the knob exists so a simulator that
// already shards waves across the cores can keep its sessions' sweeps
// serial instead of oversubscribing, while a serial simulation lets
// its one session batch sweeps across the machine. A session on the
// response table runs no sweeps and ignores it.
func (s *Spatial) SetSolverWorkers(n int) {
	if s.mg != nil {
		s.mg.Workers = n
	}
}

// Stats returns the counters accumulated since construction or the
// last TakeStats.
func (s *Spatial) Stats() SolveStats { return s.stats }

// TakeStats returns the counters and zeroes them — the per-wave drain
// the simulator aggregates across shards.
func (s *Spatial) TakeStats() SolveStats {
	st := s.stats
	s.stats = SolveStats{}
	return st
}

// EstimateGroups implements DropEstimator: set the window's per-tile
// activity, compute its field — summed from the response table, or
// solved on the mesh — and read each group's drop back, incrementally
// when SkipThreshold arms the gate. Idle groups (act < 0) still draw
// their tile's static leakage but report drop 0, matching the analytic
// default's accounting.
func (s *Spatial) EstimateGroups(act, drop []float64) {
	if len(act) != len(s.tileIdx) {
		panic(fmt.Sprintf("irdrop: %d activities for %d placed groups", len(act), len(s.tileIdx)))
	}
	for i := range s.rtog {
		s.rtog[i] = 0
	}
	for g, a := range act {
		if a > 0 {
			if a > 1 {
				a = 1
			}
			s.rtog[s.tileIdx[g]] = a
		}
	}
	if s.skip() {
		s.stats.Skips++
	} else {
		s.solve()
	}
	s.readDrops(act, drop)
}

// skip is the gate: against the last *solved* map, so sub-threshold
// drift cannot accumulate across held windows. Strict <, so a threshold
// of 0 never skips.
func (s *Spatial) skip() bool {
	if s.SkipThreshold <= 0 || !s.haveField {
		return false
	}
	moved := 0.0
	for i, r := range s.rtog {
		d := r - s.solvedRtog[i]
		if d < 0 {
			d = -d
		}
		if d > moved {
			moved = d
		}
	}
	return moved < s.SkipThreshold
}

// solve makes the current window's activity the held state: on the
// response table that is the activity itself; on a mesh it is the
// field of one warm-started solve.
func (s *Spatial) solve() {
	s.stats.Solves++
	copy(s.solvedRtog, s.rtog)
	s.haveField = true
	if s.table != nil {
		return
	}
	s.fp.CurrentMapInto(s.cur, s.act, s.rtog)
	tol := spatialSolveTolV
	if s.SkipThreshold > 0 {
		tol = spatialIncrTolV
	}
	v, cycles, converged := s.mg.SolveFieldDelta(s.cur, tol, s.solveMaxIter)
	s.stats.VCycles += int64(cycles)
	if !converged {
		s.stats.Saturated++
	}
	s.field = v
}

// readDrops reads each group's worst drop, in millivolts, off the held
// state.
func (s *Spatial) readDrops(act, drop []float64) {
	grid := s.fp.Grid
	for g, a := range act {
		if a < 0 {
			drop[g] = 0
			continue
		}
		ti := s.tileIdx[g]
		if s.table != nil {
			drop[g] = s.table.worstDrop(ti, s.solvedRtog, s.acc) * 1000
			continue
		}
		r := s.fp.GroupTiles[ti]
		worst := 0.0
		for y := r.Y0; y < r.Y1; y++ {
			row := y * grid.W
			for x := r.X0; x < r.X1; x++ {
				if d := grid.Vdd - s.field[row+x]; d > worst {
					worst = d
				}
			}
		}
		drop[g] = worst * 1000
	}
}
