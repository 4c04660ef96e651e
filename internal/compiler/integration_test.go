package compiler

import (
	"testing"

	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

// Cross-module integration: the codes the compiler deploys (LHR-tuned,
// WDS-shifted) must compute *numerically correct* results when loaded
// into the bit-serial PIM engine with its shift compensators — i.e.
// the whole offline pipeline preserves the matmul up to the baseline
// quantizer's rounding.
func TestCompiledCodesComputeExactlyOnEngine(t *testing.T) {
	net := model.ResNet18(2025)
	cfg := pim.Config{Kind: pim.DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 8, CellsPerBank: 32, WeightBits: 8}
	opt := DefaultOptions()
	opt.Strategy = SequentialMap
	c := Compile(net, pim.DefaultConfig(), opt)

	// Pick a conv plan with a WDS shift applied.
	var plan *LayerPlan
	for _, p := range c.Plans {
		if p.Delta > 0 && p.Layer.Name == "layer1.0.conv1" {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no shifted plan found")
	}

	// Reconstruct the *unshifted* LHR codes the shift was applied to.
	lhrOpt := net.LHROptions()
	lhr := quant.OptimizeLayer(plan.Layer.Weights, 8, &lhrOpt, 0).Deployed

	// Arrange codes as a small matrix and run both paths: the engine
	// with shifted weights + compensation, and the reference integer
	// matmul on the unshifted codes.
	cols := cfg.CellsPerBank
	rows := len(lhr.Codes.Data) / cols
	if rows > 24 {
		rows = 24
	}
	w := make([][]int32, rows)
	ref := tensor.NewInt(8, rows, cols)
	clampRisk := false
	for r := 0; r < rows; r++ {
		w[r] = make([]int32, cols)
		for cc := 0; cc < cols; cc++ {
			v := lhr.Codes.Data[r*cols+cc]
			if int(v)+plan.Delta > 127 {
				clampRisk = true
			}
			w[r][cc] = v
			ref.Set(v, r, cc)
		}
	}
	e := pim.NewEngine(cfg, w, plan.Delta)

	g := xrand.New(9)
	x := make([]int32, cols)
	xt := tensor.NewInt(8, cols, 1)
	for i := range x {
		x[i] = int32(g.Intn(255) - 127)
		xt.Set(x[i], i, 0)
	}
	got := e.MatVec(x, 8)
	want := tensor.MatMulInt(ref, xt)
	for r := 0; r < rows; r++ {
		if got[r] != want[r][0] {
			if clampRisk && e.ClampedWeights() > 0 {
				t.Skipf("clamped codes present (%d); exactness not expected", e.ClampedWeights())
			}
			t.Fatalf("row %d: engine %d != reference %d", r, got[r], want[r][0])
		}
	}
}

// The deployed HR the compiler records per plan matches what the
// engine actually sees after loading (padding aside).
func TestPlanHRMatchesEngineHR(t *testing.T) {
	net := model.ResNet18(2025)
	opt := DefaultOptions()
	opt.Strategy = SequentialMap
	c := Compile(net, pim.DefaultConfig(), opt)
	var plan *LayerPlan
	for _, p := range c.Plans {
		if p.Layer.Name == "layer2.0.conv1" {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("plan missing")
	}
	cols := 32
	rows := len(plan.Quant.Codes.Data) / cols
	w := make([][]int32, rows)
	for r := 0; r < rows; r++ {
		w[r] = plan.Quant.Codes.Data[r*cols : (r+1)*cols]
	}
	cfg := pim.Config{Kind: pim.DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 8, CellsPerBank: 32, WeightBits: 8}
	// Load unshifted (delta already baked into plan.Quant).
	e := pim.NewEngine(cfg, w, 0)
	// Engine pads partial tiles with zero weights, which can only dilute
	// HR downward; with row counts divisible by the bank group the two
	// agree exactly.
	if rows%cfg.BanksPerMacro == 0 {
		if diff := e.HR() - plan.HR; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("engine HR %v != plan HR %v", e.HR(), plan.HR)
		}
	} else if e.HR() > plan.HR+1e-9 {
		t.Errorf("padded engine HR %v above plan HR %v", e.HR(), plan.HR)
	}
}
