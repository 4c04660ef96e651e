// Package pdn models the chip's power delivery network as a resistive
// mesh and solves its voltage map under a given current-injection map.
//
// This is the repository's substitute for the commercial post-layout
// IR-drop tools (RedHawk) the paper uses: every floorplan cell connects
// to its four neighbours through mesh resistance and, at bump sites, to
// the ideal supply through a pad resistance; cells draw the current the
// activity model assigns them. Solving the mesh yields the steady-state
// voltage map, from which layout heatmaps (paper Fig. 16) and
// per-region IR-drop numbers are derived.
//
// Two solvers share one precomputed stencil kernel (per-cell
// conductance sums instead of branchy neighbour checks): the retained
// Gauss-Seidel reference (Grid.Solve — bit-identical to the historical
// loop, and the byte-stable default behind Fig. 16 / cmd/irmap), and
// the production Multigrid solver — a geometric V-cycle with red-black
// checkerboard-parallel smoothing and warm-start caching that solves
// production-scale floorplans (ScaledFloorplan, up to 512×512 and
// beyond) orders of magnitude faster than relaxation alone.
package pdn

import (
	"fmt"
	"strconv"
	"sync"
)

// Grid is a W×H resistive mesh. The geometry fields must not be
// mutated after the first solve: solvers cache the precomputed stencil
// kernel on the grid.
type Grid struct {
	W, H int
	// Vdd is the ideal supply voltage (volts).
	Vdd float64
	// Gmesh is the conductance between neighbouring cells (1/ohm).
	Gmesh float64
	// Gpad is the conductance from a bump cell to the ideal supply.
	Gpad float64
	// pads marks bump locations, every pitch cells (see NewGrid).
	pads  []bool
	pitch int

	stOnce sync.Once
	st     *stencil
}

// NewGrid builds a grid with a regular bump array every `pitch` cells
// (offset pitch/2), the standard flip-chip pattern. It panics when the
// dimensions, conductances or pitch are non-positive, and when the
// pitch is so large that no bump lands on the die — a padless mesh has
// no supply connection, so every solve would silently float.
func NewGrid(w, h int, vdd, gmesh, gpad float64, pitch int) *Grid {
	if w <= 0 || h <= 0 {
		panic("pdn: non-positive grid")
	}
	if pitch <= 0 {
		panic("pdn: non-positive bump pitch")
	}
	if gmesh <= 0 || gpad <= 0 {
		panic("pdn: non-positive conductance")
	}
	g := &Grid{W: w, H: h, Vdd: vdd, Gmesh: gmesh, Gpad: gpad, pads: make([]bool, w*h), pitch: pitch}
	n := 0
	for y := pitch / 2; y < h; y += pitch {
		for x := pitch / 2; x < w; x += pitch {
			g.pads[y*w+x] = true
			n++
		}
	}
	if n == 0 {
		panic(fmt.Sprintf("pdn: bump pitch %d places no pads on a %dx%d die", pitch, w, h))
	}
	return g
}

// stencil lazily builds the shared solver kernel.
func (g *Grid) stencil() *stencil {
	g.stOnce.Do(func() { g.st = newStencil(g) })
	return g.st
}

// BumpPitch returns the bump array's pitch in cells: with W, H, Vdd,
// Gmesh and Gpad it fixes the mesh, so two grids that agree on all six
// solve identically.
func (g *Grid) BumpPitch() int { return g.pitch }

// PadCount returns the number of bump sites.
func (g *Grid) PadCount() int {
	n := 0
	for _, p := range g.pads {
		if p {
			n++
		}
	}
	return n
}

// Solve computes the steady-state voltage at every cell for the given
// per-cell current draw (amps, length W*H), by Gauss-Seidel relaxation
// to the given tolerance (volts). It returns the voltage map and the
// number of sweeps used. This is the retained reference path — its
// iterates are bit-identical to the historical solver; use a
// Multigrid for large grids or repeated solves.
func (g *Grid) Solve(current []float64, tol float64, maxIter int) ([]float64, int) {
	return NewGaussSeidel(g).Solve(current, tol, maxIter)
}

// DropMap converts a voltage map into IR-drop (volts below Vdd).
func (g *Grid) DropMap(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = g.Vdd - x
	}
	return out
}

// MeanDropIn averages the drop over the cells a region covers.
func MeanDropIn(drop []float64, w int, r Rect) float64 {
	sum, n := 0.0, 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			sum += drop[y*w+x]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxDropIn returns the worst drop within a region.
func MaxDropIn(drop []float64, w int, r Rect) float64 {
	m := 0.0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if d := drop[y*w+x]; d > m {
				m = d
			}
		}
	}
	return m
}

// Rect is a half-open floorplan region [X0,X1)×[Y0,Y1).
type Rect struct{ X0, Y0, X1, Y1 int }

// Cells returns the region's area in cells.
func (r Rect) Cells() int { return (r.X1 - r.X0) * (r.Y1 - r.Y0) }

// Contains reports whether (x,y) lies in the region.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// RenderASCII draws a drop map as an ASCII heatmap (like the paper's
// Fig. 16 voltage-supply plots), scaling between lo and hi volts. The
// buffer is sized up front and written by index — this renders inside
// Fig. 16's output path, where a 512×512 map is a quarter-million
// cells.
func RenderASCII(drop []float64, w int, lo, hi float64) string {
	const shades = " .:-=+*#%@"
	h := len(drop) / w
	buf := make([]byte, (w+1)*h)
	p := 0
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			f := (drop[row+x] - lo) / (hi - lo)
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			buf[p] = shades[int(f*float64(len(shades)-1)+0.5)]
			p++
		}
		buf[p] = '\n'
		p++
	}
	return string(buf)
}

// RenderCSV emits the drop map as CSV rows in millivolts for external
// plotting. Values are appended with strconv on a preallocated buffer
// instead of one fmt.Fprintf per cell; the output bytes are identical.
func RenderCSV(drop []float64, w int) string {
	h := len(drop) / w
	// "NN.NN," per cell is the common case; AppendFloat grows the
	// buffer on the rare wider value.
	buf := make([]byte, 0, len(drop)*6+h)
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			if x > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, drop[row+x]*1000, 'f', 2, 64)
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
