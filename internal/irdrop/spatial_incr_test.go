package irdrop

import (
	"math"
	"testing"

	"aim/internal/pdn"
	"aim/internal/xrand"
)

// TestSpatialRejectsDuplicateTiles: two groups placed on one tile used
// to last-writer-win the injection value silently, making a group's
// drop depend on slice order. The constructor must refuse.
func TestSpatialRejectsDuplicateTiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate tile placement did not panic")
		}
	}()
	NewSpatial(pdn.FloorplanAt(1), []int{0, 3, 3}, pdn.DefaultActivity())
}

// TestSpatialMatchesUnconditionalSolve: at the default SkipThreshold of
// 0 a mesh-solving (256-tile) session must be bit-identical to the
// pre-incremental estimator — replicated here inline as one
// unconditional warm-started solve per window over the same floorplan.
// A 16-tile session answers the same windows off the response table:
// one computed window per call, no V-cycles, and every group within
// 0.1 mV of the per-window solve.
func TestSpatialMatchesUnconditionalSolve(t *testing.T) {
	for _, tc := range []struct {
		f      int
		tolMV  float64
		meshed bool
	}{{f: 4, tolMV: 0, meshed: true}, {f: 1, tolMV: 0.1, meshed: false}} {
		sp := spatialAt(tc.f)
		fp := pdn.FloorplanAt(tc.f)
		n := len(fp.GroupTiles)
		mg := pdn.NewMultigrid(fp.Grid)
		actCur := pdn.DefaultActivity()
		rtog := make([]float64, n)
		cur := make([]float64, fp.Grid.W*fp.Grid.H)

		rng := xrand.NewNamed(7, "spatial/incr-ref")
		act := make([]float64, n)
		drop := make([]float64, n)
		for win := 0; win < 6; win++ {
			for g := range act {
				act[g] = rng.Float64()
				if win > 2 && g%7 == 3 {
					act[g] = -1
				}
			}
			sp.EstimateGroups(act, drop)
			for i := range rtog {
				rtog[i] = 0
			}
			for g, a := range act {
				if a > 0 {
					if a > 1 {
						a = 1
					}
					rtog[g] = a
				}
			}
			fp.CurrentMapInto(cur, actCur, rtog)
			v, _ := mg.SolveField(cur, 1e-4, 64)
			for g, a := range act {
				want := 0.0
				if a >= 0 {
					r := fp.GroupTiles[g]
					for y := r.Y0; y < r.Y1; y++ {
						row := y * fp.Grid.W
						for x := r.X0; x < r.X1; x++ {
							if d := fp.Grid.Vdd - v[row+x]; d > want {
								want = d
							}
						}
					}
					want *= 1000
				}
				if d := math.Abs(drop[g] - want); !(d <= tc.tolMV) {
					t.Fatalf("f=%d window %d group %d: %v mV, reference %v mV (tolerance %v)", tc.f, win, g, drop[g], want, tc.tolMV)
				}
			}
		}
		st := sp.Stats()
		if st.Skips != 0 || st.Solves != 6 {
			t.Errorf("f=%d threshold 0 session skipped: %+v", tc.f, st)
		}
		if meshed := st.VCycles > 0; meshed != tc.meshed {
			t.Errorf("f=%d: %d V-cycles over %d windows, want mesh solves %v", tc.f, st.VCycles, st.Solves, tc.meshed)
		}
	}
}

// TestSpatialSkipStats: with the gate armed, an unchanged injection map
// answers from the held field (counted as a skip, drops identical) and
// a real move solves again — on the mesh (256 tiles, V-cycles counted)
// and on the response table (16 tiles, no V-cycles).
func TestSpatialSkipStats(t *testing.T) {
	m := DPIMModel()
	for _, f := range []int{4, 1} {
		sp := spatialAt(f)
		sp.SkipThreshold = DefaultSpatialSkipMV / m.DynCoeffMV
		n := sp.Groups()
		act := make([]float64, n)
		for g := range act {
			act[g] = 0.4
		}
		first := make([]float64, n)
		held := make([]float64, n)
		sp.EstimateGroups(act, first)
		st := sp.Stats()
		if st.Solves != 1 || st.Skips != 0 {
			t.Fatalf("f=%d first window: %+v, want exactly one solve", f, st)
		}
		if f > 1 && st.VCycles < 1 {
			t.Fatalf("f=%d first window ran no V-cycle: %+v", f, st)
		}
		if f == 1 && st.VCycles != 0 {
			t.Fatalf("16-tile first window ran V-cycles: %+v", st)
		}
		for i := 0; i < 3; i++ {
			sp.EstimateGroups(act, held)
			for g := range held {
				if held[g] != first[g] {
					t.Fatalf("f=%d held window %d group %d: %v != solved %v", f, i, g, held[g], first[g])
				}
			}
		}
		if st := sp.Stats(); st.Solves != 1 || st.Skips != 3 {
			t.Fatalf("f=%d after 3 held windows: %+v, want 1 solve / 3 skips", f, st)
		}
		// A move past the threshold solves again.
		for g := range act {
			act[g] = 0.9
		}
		sp.EstimateGroups(act, held)
		if st := sp.Stats(); st.Solves != 2 {
			t.Fatalf("f=%d supra-threshold move did not solve: %+v", f, st)
		}
		if st := sp.Stats(); f == 1 && st.VCycles != 0 {
			t.Fatalf("16-tile session ran V-cycles: %+v", st)
		}
	}
}

// TestSpatialSubThresholdDriftBounded: the gate compares against the
// last *solved* map, so a long run of individually sub-threshold steps
// in one direction cannot accumulate unbounded drop error behind held
// windows — every window's drops stay within the skip budget (plus
// solve tolerance) of a reference session that never skips.
func TestSpatialSubThresholdDriftBounded(t *testing.T) {
	m := DPIMModel()
	sp := defaultSpatial()
	sp.SkipThreshold = DefaultSpatialSkipMV / m.DynCoeffMV
	ref := defaultSpatial()
	act := make([]float64, 16)
	drop := make([]float64, 16)
	refDrop := make([]float64, 16)
	for g := range act {
		act[g] = 0.3
	}
	step := sp.SkipThreshold * 0.4 // well under the gate per window
	for i := 0; i < 20; i++ {
		sp.EstimateGroups(act, drop)
		ref.EstimateGroups(act, refDrop)
		for g := range drop {
			if d := drop[g] - refDrop[g]; d > DefaultSpatialSkipMV+1 || d < -(DefaultSpatialSkipMV+1) {
				t.Fatalf("window %d group %d drifted %.2f mV past the reference (budget %v)",
					i, g, d, DefaultSpatialSkipMV)
			}
		}
		for g := range act {
			act[g] += step
		}
	}
}

// TestSpatialSaturatedCounted: a mesh solve that exhausts its
// iteration budget without converging increments Saturated. A 16-tile
// session runs no per-window mesh solve, so the same budget can neither
// saturate nor cost it a V-cycle.
func TestSpatialSaturatedCounted(t *testing.T) {
	for _, tc := range []struct {
		f         int
		saturated int64
	}{{f: 4, saturated: 1}, {f: 1, saturated: 0}} {
		sp := spatialAt(tc.f)
		sp.solveMaxIter = 1
		act := make([]float64, sp.Groups())
		for g := range act {
			act[g] = 1
		}
		drop := make([]float64, len(act))
		sp.EstimateGroups(act, drop)
		st := sp.Stats()
		if st.Saturated != tc.saturated || st.Solves != 1 {
			t.Errorf("f=%d cold window capped at 1 V-cycle: %+v, want %d saturated of 1", tc.f, st, tc.saturated)
		}
		if tc.f == 1 && st.VCycles != 0 {
			t.Errorf("16-tile window ran V-cycles: %+v", st)
		}
	}
}

// TestSpatialTakeStatsDrains: TakeStats returns the counters and zeroes
// them; Reset does not (stats account for the session, not a wave).
func TestSpatialTakeStatsDrains(t *testing.T) {
	sp := defaultSpatial()
	act := make([]float64, 16)
	for g := range act {
		act[g] = 0.5
	}
	drop := make([]float64, 16)
	sp.EstimateGroups(act, drop)
	sp.Reset()
	if st := sp.Stats(); st.Solves != 1 {
		t.Fatalf("Reset dropped the stats: %+v", st)
	}
	if st := sp.TakeStats(); st.Solves != 1 {
		t.Fatalf("TakeStats returned %+v, want the accumulated solve", st)
	}
	if st := sp.Stats(); st != (SolveStats{}) {
		t.Fatalf("TakeStats did not drain: %+v", st)
	}
}

// TestSolveStatsAdd covers the accumulator the wave merger and the
// serving counters both use.
func TestSolveStatsAdd(t *testing.T) {
	a := SolveStats{Solves: 1, Skips: 2, VCycles: 3, Saturated: 4}
	a.Add(SolveStats{Solves: 10, Skips: 20, VCycles: 30, Saturated: 40})
	if a != (SolveStats{Solves: 11, Skips: 22, VCycles: 33, Saturated: 44}) {
		t.Errorf("Add = %+v", a)
	}
}

// benchSpatialActivity is a mid-range activity vector in the booster's
// operating band, one entry per group.
func benchSpatialActivity(groups int) []float64 {
	act := make([]float64, groups)
	for g := range act {
		act[g] = 0.4 + 0.02*float64(g%4)
	}
	return act
}

// BenchmarkSpatialEstimateCold is one window solved from the all-Vdd
// state — the first window of every wave on a die of more than 16
// tiles (here the 256-tile f=4 die).
func BenchmarkSpatialEstimateCold(b *testing.B) {
	sp := spatialAt(4)
	act := benchSpatialActivity(sp.Groups())
	drop := make([]float64, len(act))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Reset()
		sp.EstimateGroups(act, drop)
	}
}

// BenchmarkSpatialEstimateWarm alternates the injection map so every
// window solves the f=4 mesh, but off the previous field — the
// steady-state cost of the reference (threshold 0) estimator on a die
// the response table does not serve.
func BenchmarkSpatialEstimateWarm(b *testing.B) {
	sp := spatialAt(4)
	act := benchSpatialActivity(sp.Groups())
	drop := make([]float64, len(act))
	sp.EstimateGroups(act, drop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lvl := 0.3 + 0.4*float64(i%2)
		for g := range act {
			act[g] = lvl
		}
		sp.EstimateGroups(act, drop)
	}
}

// BenchmarkSpatialEstimateSkip holds the f=4 injection map with the
// calibrated gate armed: every timed window is a skip — the cost floor
// the incremental tier converges to on quiet workloads.
func BenchmarkSpatialEstimateSkip(b *testing.B) {
	sp := spatialAt(4)
	sp.SkipThreshold = DefaultSpatialSkipMV / DPIMModel().DynCoeffMV
	act := benchSpatialActivity(sp.Groups())
	drop := make([]float64, len(act))
	sp.EstimateGroups(act, drop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.EstimateGroups(act, drop)
	}
}

// BenchmarkSpatialEstimateTable is Warm's alternating windows on the
// 16-tile die, where each window is summed off the shared response
// table instead of solved: the per-window cost every served workload
// pays.
func BenchmarkSpatialEstimateTable(b *testing.B) {
	sp := spatialAt(1)
	act := benchSpatialActivity(sp.Groups())
	drop := make([]float64, len(act))
	sp.EstimateGroups(act, drop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lvl := 0.3 + 0.4*float64(i%2)
		for g := range act {
			act[g] = lvl
		}
		sp.EstimateGroups(act, drop)
	}
}
