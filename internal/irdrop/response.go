package irdrop

import (
	"fmt"
	"sync"

	"aim/internal/pdn"
)

// maxTableTiles bounds the dies the spatial tier answers by
// superposition: the paper's 4×4-tile chip (FloorplanAt(1)), which
// every served workload runs on. A dense table grows with the square
// of the tile count and loses to the warm multigrid past it — at f=4
// (256 tiles) it holds 68 MB, takes 6.2 s to build and costs 16.6 ms
// per window against multigrid's 8.1 ms — so larger dies keep solving
// the mesh per window.
const maxTableTiles = 16

// responseTolV / responseMaxIter bound the table's cold mesh solves:
// six orders under the per-window solve's spatialSolveTolV, so the
// superposed field matches a tight reference solve to well under a
// microvolt and the table is the more accurate of the two paths.
const (
	responseTolV    = 1e-10
	responseMaxIter = 200
)

// responseTable is the die's drop field by superposition. The mesh is
// linear and its pads tie it to Vdd, so the drop at any cell under a
// window's per-tile activity rtog is exactly
//
//	d0 + Σ_t rtog_t · D_t
//
// — the paper's scalar Eq. 2 (static drop plus a dynamic term linear
// in Rtog) with a tile-to-tile coupling term. d0 is the static field
// (cores, memory and every tile's leakage, all tiles at Rtog 0) and
// D_t is the field of tile t alone drawing MacroDynamicAtFull. Only
// the group tiles' own cells are kept: a group's drop is read nowhere
// else. A table is immutable once built and shared read-only by every
// session over the same die.
type responseTable struct {
	tiles int
	// off[i]..off[i+1] are tile i's cells in d0; resp holds tile i's
	// block at off[i]*tiles — one row of its cells per source tile t,
	// in t order.
	off  []int
	d0   []float64 // volts
	resp []float64 // volts at Rtog = 1
}

// responseKey identifies a table: everything buildResponseTable reads.
type responseKey struct {
	w, h             int
	vdd, gmesh, gpad float64
	pitch            int
	cores, memory    pdn.Rect
	nTiles           int
	tiles            [maxTableTiles]pdn.Rect
	act              pdn.ActivityCurrents
}

type responseEntry struct {
	once  sync.Once
	table *responseTable
	err   error
}

// responseTables holds one entry per key for the life of the process
// (about 0.3 MB each on the 16-tile die).
var responseTables sync.Map // responseKey → *responseEntry

// responseTableFor returns the shared table for a die of at most
// maxTableTiles tiles, building it on first use. Concurrent first
// callers wait for the one build.
func responseTableFor(fp *pdn.Floorplan, act pdn.ActivityCurrents) *responseTable {
	g := fp.Grid
	k := responseKey{
		w: g.W, h: g.H, vdd: g.Vdd, gmesh: g.Gmesh, gpad: g.Gpad, pitch: g.BumpPitch(),
		cores: fp.Cores, memory: fp.Memory, nTiles: len(fp.GroupTiles), act: act,
	}
	copy(k.tiles[:], fp.GroupTiles)
	v, _ := responseTables.LoadOrStore(k, &responseEntry{})
	e := v.(*responseEntry)
	e.once.Do(func() { e.table, e.err = buildResponseTable(fp, act) })
	if e.err != nil {
		panic(e.err)
	}
	return e.table
}

// buildResponseTable runs the tiles+1 cold solves serially in a fixed
// order (the static field, then each tile's response in tile order),
// so the table's bits do not depend on which session asked first.
func buildResponseTable(fp *pdn.Floorplan, act pdn.ActivityCurrents) (*responseTable, error) {
	g := fp.Grid
	n := len(fp.GroupTiles)
	t := &responseTable{tiles: n, off: make([]int, n+1)}
	for i, r := range fp.GroupTiles {
		t.off[i+1] = t.off[i] + r.Cells()
	}
	t.d0 = make([]float64, t.off[n])
	t.resp = make([]float64, t.off[n]*n)

	mg := pdn.NewMultigrid(g)
	mg.Workers = 1
	cur := make([]float64, g.W*g.H)
	// solve runs one cold solve of cur and stores Vdd − v over every
	// tile's cells through dst(i), tile i's destination row.
	solve := func(label string, dst func(i int) []float64) error {
		mg.Reset()
		v, _, converged := mg.SolveFieldDelta(cur, responseTolV, responseMaxIter)
		if !converged {
			return fmt.Errorf("irdrop: %s response solve did not reach %g V in %d V-cycles", label, responseTolV, responseMaxIter)
		}
		for i, r := range fp.GroupTiles {
			row, c := dst(i), 0
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					row[c] = g.Vdd - v[y*g.W+x]
					c++
				}
			}
		}
		return nil
	}

	fp.CurrentMapInto(cur, act, make([]float64, n))
	if err := solve("static", func(i int) []float64 { return t.d0[t.off[i]:t.off[i+1]] }); err != nil {
		return nil, err
	}
	for src, r := range fp.GroupTiles {
		clear(cur)
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				cur[y*g.W+x] = act.MacroDynamicAtFull
			}
		}
		err := solve(fmt.Sprintf("tile %d", src), func(i int) []float64 {
			cells := t.off[i+1] - t.off[i]
			base := t.off[i]*n + src*cells
			return t.resp[base : base+cells]
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// worstDrop returns the largest drop, in volts (never below 0), over
// tile i's cells under per-tile activity rtog. The source tiles are
// summed in index order, so the result is a pure function of rtog;
// tiles at Rtog 0 add nothing and are passed over. acc is scratch of
// at least tile i's cell count.
func (t *responseTable) worstDrop(i int, rtog, acc []float64) float64 {
	lo, hi := t.off[i], t.off[i+1]
	cells := hi - lo
	acc = acc[:cells]
	copy(acc, t.d0[lo:hi])
	block := t.resp[lo*t.tiles : hi*t.tiles]
	for src, r := range rtog {
		if r == 0 {
			continue
		}
		row := block[src*cells : (src+1)*cells]
		for c, d := range row {
			acc[c] += r * d
		}
	}
	worst := 0.0
	for _, d := range acc {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// maxCells is the largest tile's cell count: the scratch worstDrop
// needs.
func (t *responseTable) maxCells() int {
	m := 0
	for i := 0; i < t.tiles; i++ {
		if c := t.off[i+1] - t.off[i]; c > m {
			m = c
		}
	}
	return m
}
