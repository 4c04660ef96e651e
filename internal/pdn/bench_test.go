package pdn

// The PDN solver micro-benchmarks
// (go test -run '^$' -bench BenchmarkPDN ./internal/pdn): the retained
// Gauss-Seidel reference against the multigrid production
// solver on the 64×64 sign-off solve, and multigrid alone at the
// production scales Gauss-Seidel cannot reach.
//
// Tolerance conventions: both solvers at 64×64 run the historical
// sign-off setting (1e-6). The scaled multigrid benchmarks run
// tol=1e-4, which — per TestMultigridEqualAccuracyTolerance — still
// yields a field strictly closer to the true solution than the
// Gauss-Seidel reference achieves at its own 1e-6 setting, because
// relaxation's sweep-delta criterion stops ~1e-4 V short of
// convergence while a V-cycle's delta tracks its true error.

import "testing"

// signoffCurrent is the all-groups-at-Rtog-1 injection map — the
// paper's sign-off worst case.
func signoffCurrent(fp *Floorplan) []float64 {
	rt := make([]float64, len(fp.GroupTiles))
	for i := range rt {
		rt[i] = 1
	}
	return fp.CurrentMap(DefaultActivity(), rt)
}

// BenchmarkPDNGaussSeidel is the retained reference: the 64×64
// sign-off solve by serial lexicographic relaxation, exactly the
// historical Fig. 16 path.
func BenchmarkPDNGaussSeidel(b *testing.B) {
	fp := DefaultFloorplan()
	cur := signoffCurrent(fp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, iters := fp.Grid.Solve(cur, 1e-6, 4000); iters == 0 {
			b.Fatal("no iterations")
		}
	}
}

// BenchmarkPDNMultigrid is the same 64×64 sign-off solve through the
// V-cycle, cold-started every iteration (Reset drops the warm cache).
func BenchmarkPDNMultigrid(b *testing.B) {
	fp := DefaultFloorplan()
	cur := signoffCurrent(fp)
	mg := NewMultigrid(fp.Grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Reset()
		if _, iters := mg.Solve(cur, 1e-6, 200); iters == 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkPDNMultigridWarm measures the production pattern the warm
// start exists for: a per-group Rtog sweep (Fig. 16 before/after,
// V-f calibration), each solve starting from the previous field.
func BenchmarkPDNMultigridWarm(b *testing.B) {
	fp := DefaultFloorplan()
	act := DefaultActivity()
	rt := make([]float64, len(fp.GroupTiles))
	levels := []float64{1.0, 0.85, 0.7, 0.55, 0.4}
	curs := make([][]float64, len(levels))
	for li, lvl := range levels {
		for i := range rt {
			rt[i] = lvl
		}
		curs[li] = fp.CurrentMap(act, rt)
	}
	mg := NewMultigrid(fp.Grid)
	mg.Solve(curs[0], 1e-6, 200) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, iters := mg.Solve(curs[i%len(curs)], 1e-6, 200); iters == 0 {
			b.Fatal("no cycles")
		}
	}
}

func benchScaled(b *testing.B, scale int) {
	b.Helper()
	fp := floorplanGeometry(scale)
	cur := signoffCurrent(fp)
	mg := NewMultigrid(fp.Grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Reset()
		if _, iters := mg.Solve(cur, 1e-4, 200); iters == 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkPDNMultigrid128 solves the 128×128 production die cold.
func BenchmarkPDNMultigrid128(b *testing.B) { benchScaled(b, 2) }

// BenchmarkPDNMultigrid256 solves the 256×256 production die cold.
func BenchmarkPDNMultigrid256(b *testing.B) { benchScaled(b, 4) }

// BenchmarkPDNMultigrid512 solves the 512×512 production die cold —
// the scale the issue's acceptance pits against Gauss-Seidel's 64×64
// wall-clock.
func BenchmarkPDNMultigrid512(b *testing.B) { benchScaled(b, 8) }
