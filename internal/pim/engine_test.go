package pim

import (
	"testing"
	"testing/quick"

	"aim/internal/xrand"
)

func smallCfg() Config {
	return Config{Kind: DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 4, CellsPerBank: 8, WeightBits: 8}
}

func randMatrix(g *xrand.RNG, rows, cols, lim int) [][]int32 {
	w := make([][]int32, rows)
	for r := range w {
		w[r] = make([]int32, cols)
		for c := range w[r] {
			w[r][c] = int32(g.Intn(2*lim+1) - lim)
		}
	}
	return w
}

func refMatVec(w [][]int32, x []int32) []int64 {
	out := make([]int64, len(w))
	for r := range w {
		for c := range w[r] {
			out[r] += int64(w[r][c]) * int64(x[c])
		}
	}
	return out
}

// DESIGN.md invariant: the tiled bit-serial engine computes exact
// integer matvecs for any shape, including non-tile-aligned ones.
func TestEngineMatVecExactProperty(t *testing.T) {
	g := xrand.New(1)
	f := func(seed int64) bool {
		rows := 1 + g.Intn(11)
		cols := 1 + g.Intn(21)
		w := randMatrix(g, rows, cols, 127)
		x := make([]int32, cols)
		for i := range x {
			x[i] = int32(g.Intn(255) - 127)
		}
		e := NewEngine(smallCfg(), w, 0)
		got := e.MatVec(x, 8)
		want := refMatVec(w, x)
		for r := range want {
			if got[r] != want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Algorithm 1 end to end in hardware form: WDS-shifted weights plus the
// shared compensator reproduce the unshifted result exactly when no
// weight clamps.
func TestEngineWDSExactProperty(t *testing.T) {
	g := xrand.New(2)
	f := func(seed int64) bool {
		rows := 1 + g.Intn(9)
		cols := 1 + g.Intn(17)
		w := randMatrix(g, rows, cols, 100) // 100+16 < 127: no clamping
		x := make([]int32, cols)
		for i := range x {
			x[i] = int32(g.Intn(255) - 127)
		}
		plain := NewEngine(smallCfg(), w, 0)
		wds := NewEngine(smallCfg(), w, 16)
		if wds.ClampedWeights() != 0 {
			return false
		}
		a := plain.MatVec(x, 8)
		b := wds.MatVec(x, 8)
		for r := range a {
			if a[r] != b[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEngineWDSRaisesThenLowersNothing(t *testing.T) {
	// The engine's HR reflects the *deployed* (shifted) codes: shifting
	// a mostly-small-negative matrix by 8 must lower HR.
	g := xrand.New(3)
	rows, cols := 8, 16
	w := make([][]int32, rows)
	for r := range w {
		w[r] = make([]int32, cols)
		for c := range w[r] {
			w[r][c] = int32(-g.Intn(9)) // codes in [-8, 0]
		}
	}
	plain := NewEngine(smallCfg(), w, 0)
	wds := NewEngine(smallCfg(), w, 8)
	if wds.HR() >= plain.HR() {
		t.Errorf("WDS should lower deployed HR: %v -> %v", plain.HR(), wds.HR())
	}
}

func TestEngineValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewEngine(smallCfg(), nil, 0) },
		func() { NewEngine(smallCfg(), [][]int32{{1}}, 12) },
		func() { NewEngine(smallCfg(), [][]int32{{1, 2}}, 0).MatVec([]int32{1}, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEngineClampCounting(t *testing.T) {
	w := [][]int32{{120, 0, -5}}
	e := NewEngine(smallCfg(), w, 16)
	if e.ClampedWeights() != 1 {
		t.Errorf("clamped = %d, want 1", e.ClampedWeights())
	}
	if e.MacroCount() != 1 {
		t.Errorf("macros = %d", e.MacroCount())
	}
}

func TestAdderTreeSumExact(t *testing.T) {
	tr := NewAdderTree(6, 24)
	products := []int64{1, -2, 3, 4, 100, -50}
	sum, _ := tr.Reduce(products)
	if sum != 56 {
		t.Errorf("sum = %d, want 56", sum)
	}
}

func TestAdderTreeTogglesZeroOnRepeat(t *testing.T) {
	tr := NewAdderTree(8, 24)
	in := []int64{5, 6, 7, 8, 9, 10, 11, 12}
	tr.Reduce(in)
	_, toggles := tr.Reduce(in)
	if toggles != 0 {
		t.Errorf("repeated input toggled %d bits, want 0", toggles)
	}
}

func TestAdderTreeActivityScalesWithHamming(t *testing.T) {
	// Low-Hamming operands toggle fewer tree registers — the Fig. 22b
	// claim that HR optimization helps pure adder trees.
	g := xrand.New(8)
	seqOf := func(lim int64) [][]int64 {
		seq := make([][]int64, 60)
		for i := range seq {
			row := make([]int64, 16)
			for j := range row {
				row[j] = int64(g.Intn(int(2*lim+1))) - lim
			}
			seq[i] = row
		}
		return seq
	}
	dense := NewAdderTree(16, 24).ActivityRate(seqOf(127))
	sparse := NewAdderTree(16, 24).ActivityRate(seqOf(7))
	if sparse >= dense {
		t.Errorf("low-magnitude operands (%v) should toggle less than dense (%v)", sparse, dense)
	}
}

func TestAdderTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdderTree(4, 24).Reduce(make([]int64, 9))
}
