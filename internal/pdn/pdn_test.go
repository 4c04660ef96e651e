package pdn

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aim/internal/xrand"
)

func TestGridConstruction(t *testing.T) {
	g := NewGrid(16, 16, 0.75, 10, 50, 4)
	if g.PadCount() != 16 {
		t.Errorf("pad count = %d, want 16 (4x4 array)", g.PadCount())
	}
}

func TestGridPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"zero width", func() { NewGrid(0, 4, 0.75, 1, 1, 2) }},
		{"zero pitch", func() { NewGrid(4, 4, 0.75, 1, 1, 0) }},
		{"zero mesh conductance", func() { NewGrid(4, 4, 0.75, 0, 1, 2) }},
		{"negative pad conductance", func() { NewGrid(4, 4, 0.75, 1, -1, 2) }},
		// A pitch wider than both die edges places no bumps; the mesh
		// would have no supply connection and every solve would float.
		{"pitch beyond die", func() { NewGrid(4, 4, 0.75, 1, 1, 10) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestSolveZeroCurrentGivesVdd(t *testing.T) {
	g := NewGrid(8, 8, 0.75, 10, 50, 4)
	v, _ := g.Solve(make([]float64, 64), 1e-9, 1000)
	for i, x := range v {
		if math.Abs(x-0.75) > 1e-6 {
			t.Fatalf("cell %d voltage %v, want Vdd", i, x)
		}
	}
}

func TestSolveVoltageNeverExceedsVdd(t *testing.T) {
	g := NewGrid(12, 12, 0.75, 10, 50, 4)
	rng := xrand.New(1)
	cur := make([]float64, 144)
	for i := range cur {
		cur[i] = rng.Float64() * 0.01
	}
	v, _ := g.Solve(cur, 1e-8, 3000)
	for i, x := range v {
		if x > 0.75+1e-9 {
			t.Fatalf("cell %d voltage %v above Vdd", i, x)
		}
		if x < 0 {
			t.Fatalf("cell %d negative voltage %v", i, x)
		}
	}
}

// DESIGN.md invariant 7: drop is monotone in injected current.
func TestSolveMonotoneInCurrentProperty(t *testing.T) {
	g := NewGrid(10, 10, 0.75, 10, 50, 4)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		cur := make([]float64, 100)
		cur2 := make([]float64, 100)
		for i := range cur {
			cur[i] = rng.Float64() * 0.005
			cur2[i] = cur[i] + rng.Float64()*0.005
		}
		v1, _ := g.Solve(cur, 1e-8, 3000)
		v2, _ := g.Solve(cur2, 1e-8, 3000)
		for i := range v1 {
			if v2[i] > v1[i]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSolveConverges(t *testing.T) {
	g := NewGrid(16, 16, 0.75, 10, 50, 4)
	cur := make([]float64, 256)
	for i := range cur {
		cur[i] = 0.002
	}
	_, iters := g.Solve(cur, 1e-7, 5000)
	if iters >= 5000 {
		t.Errorf("solver did not converge in %d iterations", iters)
	}
}

func TestDropNearPadsSmaller(t *testing.T) {
	g := NewGrid(17, 17, 0.75, 10, 80, 16) // single pad at (8,8)
	cur := make([]float64, 17*17)
	for i := range cur {
		cur[i] = 0.001
	}
	v, _ := g.Solve(cur, 1e-9, 8000)
	drop := g.DropMap(v)
	center := drop[8*17+8]
	corner := drop[0]
	if center >= corner {
		t.Errorf("drop at pad (%v) should be below drop at far corner (%v)", center, corner)
	}
}

func TestDefaultFloorplanGeometry(t *testing.T) {
	fp := DefaultFloorplan()
	if len(fp.GroupTiles) != 16 {
		t.Fatalf("group tiles = %d, want 16", len(fp.GroupTiles))
	}
	for i, r := range fp.GroupTiles {
		if r.X1 > fp.Grid.W || r.Y1 > fp.Grid.H {
			t.Errorf("tile %d out of die: %+v", i, r)
		}
		if r.Cells() <= 0 {
			t.Errorf("tile %d empty", i)
		}
		if fp.Cores.Contains(r.X0, r.Y0) {
			t.Errorf("tile %d overlaps cores", i)
		}
	}
}

func TestSignoffWorstCaseNear140mV(t *testing.T) {
	// Calibration check: all groups at Rtog=1 → worst in-macro drop
	// ~140 mV (§6.6); macros must be the hotspots, not core/memory.
	fp := DefaultFloorplan()
	act := DefaultActivity()
	rt := make([]float64, 16)
	for i := range rt {
		rt[i] = 1.0
	}
	drop, worst := fp.SolveActivity(act, rt)
	if worst < 0.120 || worst > 0.160 {
		t.Errorf("sign-off worst macro drop = %.1f mV, want ~140 mV", worst*1000)
	}
	coreDrop := MaxDropIn(drop, fp.Grid.W, fp.Cores)
	if coreDrop >= worst {
		t.Errorf("core drop %v should be below macro worst %v (Fig. 16)", coreDrop, worst)
	}
}

func TestLowActivityShrinksDrop(t *testing.T) {
	fp := DefaultFloorplan()
	act := DefaultActivity()
	high := make([]float64, 16)
	low := make([]float64, 16)
	for i := range high {
		high[i] = 1.0
		low[i] = 0.3
	}
	_, worstHigh := fp.SolveActivity(act, high)
	_, worstLow := fp.SolveActivity(act, low)
	if worstLow >= worstHigh {
		t.Fatalf("drop should fall with activity: %v vs %v", worstLow, worstHigh)
	}
	// Mitigation at Rtog 0.3 should be in the paper's 50-70% band.
	mit := 1 - worstLow/worstHigh
	if mit < 0.35 || mit > 0.80 {
		t.Errorf("mitigation at Rtog=0.3 is %.1f%%, want paper-shaped", mit*100)
	}
}

func TestCurrentMapPanics(t *testing.T) {
	fp := DefaultFloorplan()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong activity length")
		}
	}()
	fp.CurrentMap(DefaultActivity(), []float64{1})
}

func TestCurrentMapRejectsBadRtog(t *testing.T) {
	fp := DefaultFloorplan()
	rt := make([]float64, 16)
	rt[3] = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Rtog > 1")
		}
	}()
	fp.CurrentMap(DefaultActivity(), rt)
}

func TestRegionHelpers(t *testing.T) {
	r := Rect{X0: 1, Y0: 1, X1: 3, Y1: 4}
	if r.Cells() != 6 {
		t.Errorf("cells = %d", r.Cells())
	}
	if !r.Contains(1, 3) || r.Contains(3, 3) {
		t.Error("contains wrong")
	}
}

func TestRenderASCII(t *testing.T) {
	drop := []float64{0, 0.05, 0.10, 0.14}
	s := RenderASCII(drop, 2, 0, 0.14)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("render shape wrong: %q", s)
	}
	if lines[0][0] != ' ' || lines[1][1] != '@' {
		t.Errorf("shading wrong: %q", s)
	}
}

func TestRenderCSV(t *testing.T) {
	s := RenderCSV([]float64{0.001, 0.002, 0.003, 0.004}, 2)
	if !strings.Contains(s, "1.00,2.00") || !strings.Contains(s, "3.00,4.00") {
		t.Errorf("csv wrong: %q", s)
	}
}
