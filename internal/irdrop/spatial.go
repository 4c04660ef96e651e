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
	// solve. Warm-started from the previous window's field a V-cycle
	// count of 1-2 suffices; the first solve of a session converges
	// from cold within the iteration budget.
	spatialSolveTolV    = 1e-4
	spatialSolveMaxIter = 64

	// spatialIncrTolV is the per-cycle convergence tolerance of an
	// incremental session (SkipThreshold > 0). The V-cycle contracts
	// error by roughly an order of magnitude per cycle, so stopping at
	// a 1 mV last update leaves ~0.1 mV of true field error — an order
	// under the skip gate's own DefaultSpatialSkipMV budget and two
	// under the calibration band. The reference tolerance buys 10 µV
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

// SolveStats counts one estimator session's mesh-solve work. The
// incremental spatial tier turns most windows into skips; these
// counters are what makes that observable — and what surfaces a solver
// quietly saturating its iteration budget, which the pre-stats code
// discarded.
type SolveStats struct {
	// Solves counts EstimateGroups calls that ran at least one V-cycle.
	Solves int64
	// Skips counts calls answered from the held field: the injection
	// map moved less than SkipThreshold since the last solved window.
	Skips int64
	// VCycles is the total V-cycle count across Solves.
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
// per-group activity becomes a die current-injection map, one
// warm-started multigrid solve yields the voltage field, and every
// group's drop is read back from its own floorplan tiles — so a
// group's drop depends on where it sits and what its neighbours are
// doing, the physics the analytic Model's NoiseMV term only
// approximates statistically.
//
// A Spatial owns its pdn.Multigrid session and is NOT safe for
// concurrent use; the simulator hands each wave shard its own and
// Resets it at wave boundaries so results are independent of worker
// count and execution order.
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
	mg      *pdn.Multigrid
	rtog    []float64 // per-tile activity buffer
	cur     []float64 // injection map buffer
	// solvedRtog/haveField are the dirty-state tracking between
	// windows: the per-tile activity of the last map actually solved
	// (not merely seen — comparing against the last seen map would let
	// sub-threshold drift accumulate unboundedly) and whether field
	// still answers it.
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
// densities. The floorplan's own Solver field is ignored — the session
// keeps a private warm-started multigrid, so a shared geometry-only
// floorplan (pdn.FloorplanAt) may back many sessions.
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
	return &Spatial{
		fp:           fp,
		tileIdx:      tileIdx,
		act:          act,
		mg:           pdn.NewMultigrid(fp.Grid),
		rtog:         make([]float64, len(fp.GroupTiles)),
		cur:          make([]float64, fp.Grid.W*fp.Grid.H),
		solvedRtog:   make([]float64, len(fp.GroupTiles)),
		solveMaxIter: spatialSolveMaxIter,
	}
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
	s.mg.Reset()
	s.haveField = false
}

// SetSolverWorkers bounds the mesh solver's checkerboard sweep fan-out
// over internal/runner: 0 means one worker per CPU, 1 forces serial
// sweeps. The checkerboard invariant makes the solved field
// bit-identical for any value — the knob exists so a simulator that
// already shards waves across the cores can keep its sessions' sweeps
// serial instead of oversubscribing, while a serial simulation lets
// its one session batch sweeps across the machine.
func (s *Spatial) SetSolverWorkers(n int) { s.mg.Workers = n }

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

// EstimateGroups implements DropEstimator: inject, solve, read back —
// incrementally when SkipThreshold arms the gate. Idle groups
// (act < 0) still draw their tile's static leakage but report drop 0,
// matching the analytic default's accounting.
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
	// Skip gate: against the last *solved* map, so sub-threshold drift
	// cannot accumulate across held windows. Strict <, so a threshold
	// of 0 never skips.
	if s.SkipThreshold > 0 && s.haveField {
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
		if moved < s.SkipThreshold {
			s.stats.Skips++
			s.readDrops(act, drop, s.field)
			return
		}
	}
	s.fp.CurrentMapInto(s.cur, s.act, s.rtog)
	tol := spatialSolveTolV
	if s.SkipThreshold > 0 {
		tol = spatialIncrTolV
	}
	v, cycles, converged := s.mg.SolveFieldDelta(s.cur, tol, s.solveMaxIter)
	s.stats.Solves++
	s.stats.VCycles += int64(cycles)
	if !converged {
		s.stats.Saturated++
	}
	s.field = v
	s.haveField = true
	copy(s.solvedRtog, s.rtog)
	s.readDrops(act, drop, v)
}

// readDrops reads each group's worst drop back from a voltage field.
func (s *Spatial) readDrops(act, drop []float64, v []float64) {
	grid := s.fp.Grid
	for g, a := range act {
		if a < 0 {
			drop[g] = 0
			continue
		}
		r := s.fp.GroupTiles[s.tileIdx[g]]
		worst := 0.0
		for y := r.Y0; y < r.Y1; y++ {
			row := y * grid.W
			for x := r.X0; x < r.X1; x++ {
				if d := grid.Vdd - v[row+x]; d > worst {
					worst = d
				}
			}
		}
		drop[g] = worst * 1000
	}
}
