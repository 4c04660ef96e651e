package pdn

// stencil is the shared 5-point kernel every PDN solve path runs on:
// the per-cell conductance sums of the resistive mesh, precomputed once
// so the hot sweeps replace the four branchy neighbour checks of the
// original Gauss-Seidel loop with straight-line loads and multiplies.
//
// The discrete system is A·v = b with
//
//	A[i][i]   = Σ incident link conductances + padG[i]   (= sumG[i])
//	A[i][j]   = -gmesh for each mesh neighbour j
//	b[i]      = padG[i]·Vdd − current[i]                 (= rhs)
//
// The same kernel serves two consumers: the retained Gauss-Seidel
// reference (which keeps the original's exact floating-point op order,
// so its iterates stay bit-identical to the historical solver) and the
// multigrid smoother/residual (red-black order, checkerboard-parallel).
// Coarse multigrid levels are stencils too: coarsen() aggregates 2×2
// cell blocks, keeping the scale-invariant sheet conductance and
// summing pad conductances into the owning block with a
// spreading-resistance correction.
type stencil struct {
	w, h  int
	gmesh float64
	// sumG is the diagonal of A, accumulated in the original solver's
	// order (left, right, up, down, pad) so Gauss-Seidel division
	// reproduces the historical bytes exactly.
	sumG []float64
	// inv caches 1/sumG for the multiply-only multigrid sweeps.
	inv []float64
	// padG is the per-cell pad-to-supply conductance (0 off-bump).
	// Fine grids hold Gpad at bump sites; coarse grids hold block sums.
	padG []float64
}

// newStencil precomputes the kernel for a grid.
func newStencil(g *Grid) *stencil {
	padG := make([]float64, g.W*g.H)
	for i, p := range g.pads {
		if p {
			padG[i] = g.Gpad
		}
	}
	return stencilFrom(g.W, g.H, g.Gmesh, padG)
}

// stencilFrom builds the kernel from raw geometry — the constructor the
// multigrid coarsening reuses, keeping every level's operator
// consistent with the smoother that runs on it.
func stencilFrom(w, h int, gmesh float64, padG []float64) *stencil {
	s := &stencil{w: w, h: h, gmesh: gmesh, padG: padG,
		sumG: make([]float64, w*h), inv: make([]float64, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			// Accumulation order matches the original Solve loop:
			// left, right, up, down, then pad.
			sum := 0.0
			if x > 0 {
				sum += gmesh
			}
			if x < w-1 {
				sum += gmesh
			}
			if y > 0 {
				sum += gmesh
			}
			if y < h-1 {
				sum += gmesh
			}
			if padG[i] != 0 {
				sum += padG[i]
			}
			s.sumG[i] = sum
			if sum != 0 {
				s.inv[i] = 1 / sum
			}
		}
	}
	return s
}

// rhs fills b for the top-level system: pad injection minus cell draw.
func (s *stencil) rhs(vdd float64, current, out []float64) {
	for i := range out {
		out[i] = s.padG[i]*vdd - current[i]
	}
}

// sweepColorRows relaxes every cell of one red-black color in rows
// [y0, y1) and returns the largest update it made. Cells of one color
// read only the other color, so any row partition of a color pass
// produces bit-identical results — checkerboard parallelism is a pure
// wall-clock knob.
func (s *stencil) sweepColorRows(v, rhs []float64, color, y0, y1 int) float64 {
	w := s.w
	maxDelta := 0.0
	for y := y0; y < y1; y++ {
		xs := (color + y) & 1
		if xs >= w {
			continue
		}
		x := s.sweepRowEdges(v, rhs, y, xs, &maxDelta)
		if y == 0 || y == s.h-1 {
			continue
		}
		// Interior row hot loop: row slices let the compiler drop the
		// bound checks, and delta tracking rides along for the
		// convergence test.
		row := y * w
		up := v[row-w : row : row]
		cur := v[row : row+w : row+w]
		dn := v[row+w : row+2*w : row+2*w]
		rr := rhs[row : row+w : row+w]
		ir := s.inv[row : row+w : row+w]
		gm := s.gmesh
		if x < 1 {
			x = 1 // edge pass always covers x=0; hint for bound-check elimination
		}
		for ; x < w-1; x += 2 {
			nv := (gm*(cur[x-1]+cur[x+1]+up[x]+dn[x]) + rr[x]) * ir[x]
			if d := nv - cur[x]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			cur[x] = nv
		}
	}
	return maxDelta
}

// sweepColorRowsQuiet is sweepColorRows without delta tracking — the
// pre-smoothing passes, where only the field matters. The update
// arithmetic is identical.
func (s *stencil) sweepColorRowsQuiet(v, rhs []float64, color, y0, y1 int) {
	w := s.w
	var sink float64
	for y := y0; y < y1; y++ {
		xs := (color + y) & 1
		if xs >= w {
			continue
		}
		x := s.sweepRowEdges(v, rhs, y, xs, &sink)
		if y == 0 || y == s.h-1 {
			continue
		}
		row := y * w
		up := v[row-w : row : row]
		cur := v[row : row+w : row+w]
		dn := v[row+w : row+2*w : row+2*w]
		rr := rhs[row : row+w : row+w]
		ir := s.inv[row : row+w : row+w]
		gm := s.gmesh
		if x < 1 {
			x = 1
		}
		for ; x < w-1; x += 2 {
			cur[x] = (gm*(cur[x-1]+cur[x+1]+up[x]+dn[x]) + rr[x]) * ir[x]
		}
	}
}

// sweepRowEdges relaxes row y's on-color edge cells (the left/right
// die columns) and, on the two boundary rows, the whole row with
// y-branches. It returns the first interior x the caller's hot loop
// should start from, and folds deltas into maxDelta.
func (s *stencil) sweepRowEdges(v, rhs []float64, y, xs int, maxDelta *float64) int {
	w, h := s.w, s.h
	gm := s.gmesh
	row := y * w
	update := func(i int, sum float64) {
		nv := (sum + rhs[i]) * s.inv[i]
		if d := nv - v[i]; d > *maxDelta {
			*maxDelta = d
		} else if -d > *maxDelta {
			*maxDelta = -d
		}
		v[i] = nv
	}
	x := xs
	if x == 0 {
		sum := 0.0
		if w > 1 {
			sum = gm * v[row+1]
		}
		if y > 0 {
			sum += gm * v[row-w]
		}
		if y < h-1 {
			sum += gm * v[row+w]
		}
		update(row, sum)
		x += 2
	}
	if y == 0 || y == h-1 {
		// Boundary rows keep the y-branches; there are only two.
		for ; x < w-1; x += 2 {
			i := row + x
			sum := gm * (v[i-1] + v[i+1])
			if y > 0 {
				sum += gm * v[i-w]
			}
			if y < h-1 {
				sum += gm * v[i+w]
			}
			update(i, sum)
		}
	}
	// Right edge cell, if on-color (interior rows skip the hot span
	// first; the caller handles it — but the edge cell is independent
	// of the span, so do it here).
	if last := w - 1; last > 0 && (xs+last)%2 == 0 {
		i := row + last
		sum := gm * v[i-1]
		if y > 0 {
			sum += gm * v[i-w]
		}
		if y < h-1 {
			sum += gm * v[i+w]
		}
		update(i, sum)
	}
	return x
}

// sweepFused runs one full red-black sweep in a single staggered pass
// over memory: red row y, then black row y−1, whose red neighbours
// (rows y−2…y) are all final by then. The result is bit-identical to
// a full red pass followed by a full black pass — black cells read
// only red cells, and every red read happens after the red update —
// but each cache line is touched once per sweep instead of twice.
func (s *stencil) sweepFused(v, rhs []float64) float64 {
	d := s.sweepColorRows(v, rhs, 0, 0, 1)
	for y := 1; y < s.h; y++ {
		if dd := s.sweepColorRows(v, rhs, 0, y, y+1); dd > d {
			d = dd
		}
		if dd := s.sweepColorRows(v, rhs, 1, y-1, y); dd > d {
			d = dd
		}
	}
	if dd := s.sweepColorRows(v, rhs, 1, s.h-1, s.h); dd > d {
		d = dd
	}
	return d
}

// sweepFusedQuiet is sweepFused for the pre-smoothing passes: same
// staggered single-pass order, no delta tracking.
func (s *stencil) sweepFusedQuiet(v, rhs []float64) {
	s.sweepColorRowsQuiet(v, rhs, 0, 0, 1)
	for y := 1; y < s.h; y++ {
		s.sweepColorRowsQuiet(v, rhs, 0, y, y+1)
		s.sweepColorRowsQuiet(v, rhs, 1, y-1, y)
	}
	s.sweepColorRowsQuiet(v, rhs, 1, s.h-1, s.h)
}

// coarseDims halves a dimension, rounding up so odd edges keep a
// (thinner) block of their own.
func coarseDims(n int) int { return (n + 1) / 2 }

// coarsen aggregates 2×2 cell blocks into one coarse cell. Sheet
// conductance is scale-invariant in 2D — a block-to-block link is
// twice as wide and twice as long as a cell-to-cell link — so the
// coarse mesh keeps the same link conductance, while pad conductances
// sum into the owning block (current conservation) with a
// spreading-resistance correction (below). Coarse-operator error only
// costs convergence speed, never accuracy: the fine-level tolerance
// check governs every solve.
func (s *stencil) coarsen() *stencil {
	cw, ch := coarseDims(s.w), coarseDims(s.h)
	padG := make([]float64, cw*ch)
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			padG[(y/2)*cw+x/2] += s.padG[y*s.w+x]
		}
	}
	// Spreading-resistance correction: a pad is a point sink, and in
	// 2D the mesh resistance funnelling current into it grows like
	// log(pitch/cell). Halving the resolution removes one octave of
	// that funnel — ln2/(2π)/gmesh of series resistance — which a raw
	// conductance sum would silently drop, leaving every coarse level
	// better-grounded than the mesh it stands in for (and the V-cycle
	// over-correcting the smooth inter-pad error mode). Folding the
	// lost octave back in as a series term keeps the coarse pad
	// coupling faithful at every level.
	for i, g := range padG {
		if g != 0 {
			padG[i] = 1 / (1/g + padSpreadC/s.gmesh)
		}
	}
	return stencilFrom(cw, ch, s.gmesh, padG)
}

// padSpreadC is the per-octave spreading-resistance constant ln2/(2π),
// in units of mesh squares.
const padSpreadC = 0.110

// restrictResidual computes the residual r = b − A·v row by row and
// sums it straight into the 2×2 coarse blocks (current conservation
// under piecewise-constant aggregation), never materializing the fine
// residual — one array stream less per level per cycle.
func (s *stencil) restrictResidual(v, rhs, coarse []float64) {
	w, h := s.w, s.h
	cw := coarseDims(w)
	gm := s.gmesh
	for i := range coarse {
		coarse[i] = 0
	}
	for y := 0; y < h; y++ {
		crow := coarse[(y/2)*cw : (y/2)*cw+cw : (y/2)*cw+cw]
		row := y * w
		if y == 0 || y == h-1 || w < 3 {
			for x := 0; x < w; x++ {
				i := row + x
				sum := 0.0
				if x > 0 {
					sum += v[i-1]
				}
				if x < w-1 {
					sum += v[i+1]
				}
				if y > 0 {
					sum += v[i-w]
				}
				if y < h-1 {
					sum += v[i+w]
				}
				crow[x/2] += rhs[i] + gm*sum - s.sumG[i]*v[i]
			}
			continue
		}
		up := v[row-w : row : row]
		cur := v[row : row+w : row+w]
		dn := v[row+w : row+2*w : row+2*w]
		rr := rhs[row : row+w : row+w]
		sg := s.sumG[row : row+w : row+w]
		crow[0] += rr[0] + gm*(cur[1]+up[0]+dn[0]) - sg[0]*cur[0]
		for x := 1; x < w-1; x++ {
			crow[x>>1] += rr[x] + gm*(cur[x-1]+cur[x+1]+up[x]+dn[x]) - sg[x]*cur[x]
		}
		x := w - 1
		crow[x>>1] += rr[x] + gm*(cur[x-1]+up[x]+dn[x]) - sg[x]*cur[x]
	}
}

// prolongAdd interpolates a coarse correction bilinearly onto the fine
// grid and adds it to v, returning the largest correction applied.
// Fine cell (x, y) blends its owning coarse cell with the coarse
// neighbour on each axis it leans toward (weights 3/4, 1/4), clamped
// at the die edge.
func (s *stencil) prolongAdd(e []float64, v []float64) float64 {
	w := s.w
	cw, ch := coarseDims(w), coarseDims(s.h)
	maxCorr := 0.0
	add := func(vr []float64, x int, corr float64) {
		vr[x] += corr
		if corr > maxCorr {
			maxCorr = corr
		} else if -corr > maxCorr {
			maxCorr = -corr
		}
	}
	for y := 0; y < s.h; y++ {
		cy := y / 2
		ny := cy + (y&1)*2 - 1 // neighbour block along y, clamped at the edge
		if ny < 0 {
			ny = 0
		} else if ny >= ch {
			ny = ch - 1
		}
		e0 := e[cy*cw : cy*cw+cw]
		e1 := e[ny*cw : ny*cw+cw]
		vr := v[y*w : y*w+w]
		// Edge columns clamp their x-neighbour block; interior columns
		// never need to (the lean direction always lands on the die).
		add(vr, 0, 0.75*e0[0]+0.25*e1[0])
		for x := 1; x < w-1; x++ {
			cx := x >> 1
			nx := cx + (x&1)*2 - 1
			add(vr, x, 0.5625*e0[cx]+0.1875*(e0[nx]+e1[cx])+0.0625*e1[nx])
		}
		if w > 1 {
			x := w - 1
			cx := x >> 1
			nx := cx + (x&1)*2 - 1
			if nx >= cw {
				nx = cw - 1
			}
			add(vr, x, 0.5625*e0[cx]+0.1875*(e0[nx]+e1[cx])+0.0625*e1[nx])
		}
	}
	return maxCorr
}
