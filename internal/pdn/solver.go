package pdn

import (
	"fmt"

	"aim/internal/runner"
)

// Solver computes the steady-state voltage map of a grid under a
// per-cell current draw. Implementations may keep internal state
// between calls (warm-start caches, level hierarchies, scratch
// buffers); a Solver instance is therefore NOT safe for concurrent
// use — give each goroutine its own.
type Solver interface {
	// Solve returns the voltage map and the number of iterations used
	// (sweeps for Gauss-Seidel, V-cycles for multigrid). It stops when
	// a full pass changes no cell by more than tol volts, or after
	// maxIter iterations.
	Solve(current []float64, tol float64, maxIter int) ([]float64, int)
}

// GaussSeidel is the retained reference solver: serial lexicographic
// relaxation, bit-identical to the historical Grid.Solve loop. It
// exists as the equivalence baseline for the multigrid solver and as
// the byte-stable default behind Fig. 16 / cmd/irmap rendering; new
// large-scale paths should prefer NewMultigrid.
type GaussSeidel struct {
	g *Grid
}

// NewGaussSeidel wraps a grid in the reference solver.
func NewGaussSeidel(g *Grid) *GaussSeidel { return &GaussSeidel{g: g} }

// Solve relaxes from the all-Vdd state. It panics if the current map
// does not match the grid size (the historical contract).
func (s *GaussSeidel) Solve(current []float64, tol float64, maxIter int) ([]float64, int) {
	g := s.g
	if len(current) != g.W*g.H {
		panic(fmt.Sprintf("pdn: current map size %d != %d", len(current), g.W*g.H))
	}
	st := g.stencil()
	v := make([]float64, g.W*g.H)
	for i := range v {
		v[i] = g.Vdd
	}
	padGV := g.Gpad * g.Vdd
	iter := 0
	for ; iter < maxIter; iter++ {
		if maxDelta := st.gsSweep(v, current, padGV); maxDelta < tol {
			iter++
			break
		}
	}
	return v, iter
}

// gsSweep is one lexicographic Gauss-Seidel sweep on the stencil
// kernel. The neighbour accumulation order (left, right, up, down,
// pad) and the division by the precomputed conductance sum reproduce
// the original branchy loop's floating-point results bit for bit; the
// kernel only removes the per-cell bound checks by splitting each row
// into edge cells and a branch-free interior.
func (s *stencil) gsSweep(v, current []float64, padGV float64) float64 {
	w, h := s.w, s.h
	gm := s.gmesh
	maxDelta := 0.0
	update := func(i int, sumGV float64) {
		if s.padG[i] != 0 {
			sumGV += padGV
		}
		if s.sumG[i] == 0 {
			return
		}
		nv := (sumGV - current[i]) / s.sumG[i]
		if d := nv - v[i]; d > maxDelta {
			maxDelta = d
		} else if -d > maxDelta {
			maxDelta = -d
		}
		v[i] = nv
	}
	for y := 0; y < h; y++ {
		row := y * w
		if y == 0 || y == h-1 {
			for x := 0; x < w; x++ {
				i := row + x
				sumGV := 0.0
				if x > 0 {
					sumGV += gm * v[i-1]
				}
				if x < w-1 {
					sumGV += gm * v[i+1]
				}
				if y > 0 {
					sumGV += gm * v[i-w]
				}
				if y < h-1 {
					sumGV += gm * v[i+w]
				}
				update(i, sumGV)
			}
			continue
		}
		{
			sumGV := gm*v[row+1] + gm*v[row-w] + gm*v[row+w]
			if w == 1 {
				sumGV = gm*v[row-w] + gm*v[row+w]
			}
			update(row, sumGV)
		}
		for x := 1; x < w-1; x++ {
			i := row + x
			update(i, gm*v[i-1]+gm*v[i+1]+gm*v[i-w]+gm*v[i+w])
		}
		if w > 1 {
			i := row + w - 1
			update(i, gm*v[i-1]+gm*v[i-w]+gm*v[i+w])
		}
	}
	return maxDelta
}

// parallelMinCells gates checkerboard parallelism: below this size the
// goroutine fan-out costs more than the sweep itself.
const parallelMinCells = 1 << 15

// coarsestMaxCells bounds the bottom of the multigrid hierarchy; a
// grid this small is solved by plain relaxation in microseconds.
const coarsestMaxCells = 32

// Multigrid is the production solver: a geometric V-cycle over the
// resistive mesh with a red-black Gauss-Seidel smoother, summed
// (current-conserving) restriction, bilinear prolongation, and a
// warm-start cache. Repeated solves with incrementally changing
// current maps — per-group Rtog sweeps, V-f calibration — start from
// the previous voltage field instead of all-Vdd, typically converging
// in a couple of V-cycles.
//
// Red-black sweeps fan out over internal/runner in row bands; cells of
// one color read only the other color, so the result is bit-identical
// for any worker count. A Multigrid keeps per-level scratch state and
// is not safe for concurrent use.
type Multigrid struct {
	g      *Grid
	levels []*stencil
	// rhs/err are per-level scratch: the right-hand side and the error
	// correction being solved for (err[0] is unused — level 0 updates
	// the voltage field directly).
	rhs [][]float64
	err [][]float64
	// v is the warm-start cache: the converged field of the previous
	// solve, used as the next initial guess. cold marks it stale after
	// Reset, so the next solve starts from all-Vdd in the same buffer
	// instead of allocating a new field.
	v    []float64
	cold bool
	// Workers bounds the checkerboard sweep fan-out: 0 means one per
	// CPU (GOMAXPROCS), 1 forces serial sweeps. Grids below
	// parallelMinCells always sweep serially.
	Workers int
}

// preSmooth and postSmooth are the red-black sweeps on each side of
// the coarse-grid correction.
const preSmooth, postSmooth = 2, 2

// NewMultigrid builds the level hierarchy for a grid. Setup cost is a
// few fine-grid sweeps' worth; reuse the instance across solves to
// amortize it and to benefit from warm starts.
func NewMultigrid(g *Grid) *Multigrid {
	m := &Multigrid{g: g}
	st := g.stencil()
	for {
		m.levels = append(m.levels, st)
		m.rhs = append(m.rhs, make([]float64, st.w*st.h))
		m.err = append(m.err, make([]float64, st.w*st.h))
		cw, ch := coarseDims(st.w), coarseDims(st.h)
		if st.w*st.h <= coarsestMaxCells || (cw == st.w && ch == st.h) {
			break
		}
		st = st.coarsen()
	}
	return m
}

// Reset drops the warm-start cache; the next Solve starts from the
// all-Vdd field. The field buffer itself is kept for that solve.
func (m *Multigrid) Reset() { m.cold = true }

// Solve runs V-cycles until a full cycle moves no cell by more than
// tol volts (the analogue of the Gauss-Seidel sweep criterion) or
// maxIter cycles elapse. It returns a copy of the voltage field and
// the number of cycles used.
func (m *Multigrid) Solve(current []float64, tol float64, maxIter int) ([]float64, int) {
	v, iter := m.SolveField(current, tol, maxIter)
	out := make([]float64, len(v))
	copy(out, v)
	return out, iter
}

// SolveField is Solve without the defensive copy: the returned slice
// is the solver's internal warm-start field, valid only until the next
// Solve/SolveField/Reset call on this instance. The per-cycle spatial
// drop estimators read the field immediately after each solve — one
// field copy per simulated cycle would dominate their allocation
// profile. Callers that retain the field must use Solve.
func (m *Multigrid) SolveField(current []float64, tol float64, maxIter int) ([]float64, int) {
	v, iter, _ := m.SolveFieldDelta(current, tol, maxIter)
	return v, iter
}

// SolveFieldDelta is SolveField with an explicit convergence verdict:
// it assembles the right-hand side for the new current map and runs
// V-cycles exactly as SolveField does — warm-started, so they work off
// only the residual the injection change induced. converged reports
// whether the final cycle moved no cell by more than tol; false means
// the iteration budget saturated without meeting tolerance
// (SolveField's bare count cannot tell a last-cycle convergence from
// saturation).
//
// It never holds a warm field without solving: a pointwise residual
// test is blind to the smooth field error a small uniform shift of the
// injection map leaves behind, so callers that skip solves gate on
// their own injection-change metric (as irdrop.Spatial does).
func (m *Multigrid) SolveFieldDelta(current []float64, tol float64, maxIter int) (v []float64, cycles int, converged bool) {
	g := m.g
	n := g.W * g.H
	if len(current) != n {
		panic(fmt.Sprintf("pdn: current map size %d != %d", len(current), n))
	}
	m.levels[0].rhs(g.Vdd, current, m.rhs[0])
	if m.v == nil || m.cold {
		if m.v == nil {
			m.v = make([]float64, n)
		}
		for i := range m.v {
			m.v[i] = g.Vdd
		}
		m.cold = false
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		if delta := m.cycle(0, m.v, m.rhs[0], tol); delta < tol {
			return m.v, iter + 1, true
		}
	}
	return m.v, iter, false
}

// cycle runs one V-cycle at the given level and returns the largest
// change it applied to v (smoothing deltas and prolonged corrections
// combined).
func (m *Multigrid) cycle(l int, v, rhs []float64, tol float64) float64 {
	st := m.levels[l]
	if l == len(m.levels)-1 {
		// Coarsest level: relax to well below the requested tolerance
		// (the grid is at most coarsestMaxCells cells).
		delta := 0.0
		for i := 0; i < 500; i++ {
			delta = m.sweep(st, v, rhs, true)
			if delta < tol*1e-3 {
				break
			}
		}
		return delta
	}
	for i := 0; i < preSmooth; i++ {
		m.sweep(st, v, rhs, false)
	}
	st.restrictResidual(v, rhs, m.rhs[l+1])
	ec := m.err[l+1]
	for i := range ec {
		ec[i] = 0
	}
	m.cycle(l+1, ec, m.rhs[l+1], tol)
	delta := st.prolongAdd(ec, v)
	for i := 0; i < postSmooth; i++ {
		// Only the final polishing sweep needs the convergence delta;
		// the earlier ones run the delta-free kernel.
		if i < postSmooth-1 {
			m.sweep(st, v, rhs, false)
		} else if d := m.sweep(st, v, rhs, true); d > delta {
			delta = d
		}
	}
	return delta
}

// sweep runs one full red-black sweep (both colors), fanning each
// color pass out over row bands when the level is large enough. With
// track false it skips delta bookkeeping and returns 0.
func (m *Multigrid) sweep(st *stencil, v, rhs []float64, track bool) float64 {
	workers := runner.Workers(m.Workers, st.h)
	if st.w*st.h < parallelMinCells || workers <= 1 {
		if !track {
			st.sweepFusedQuiet(v, rhs)
			return 0
		}
		return st.sweepFused(v, rhs)
	}
	maxDelta := 0.0
	for color := 0; color < 2; color++ {
		deltas := runner.Collect(workers, workers, func(b int) float64 {
			y0 := b * st.h / workers
			y1 := (b + 1) * st.h / workers
			if !track {
				st.sweepColorRowsQuiet(v, rhs, color, y0, y1)
				return 0
			}
			return st.sweepColorRows(v, rhs, color, y0, y1)
		})
		for _, d := range deltas {
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}
