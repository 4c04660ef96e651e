package aim

import (
	"fmt"
	"testing"

	"aim/internal/quant"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

// optimizeReference is Optimize as it stood before it went through
// quant.OptimizeLayer: the LHR pass (which quantized a second time)
// and then the WDS shift, written out by hand.
func optimizeReference(weights []float64, opt OptimizeOptions) (OptimizedWeights, error) {
	if len(weights) == 0 {
		return OptimizedWeights{}, fmt.Errorf("aim: empty weight tensor")
	}
	if opt.Bits == 0 {
		opt.Bits = 8
	}
	if opt.Bits < 2 || opt.Bits > 16 {
		return OptimizedWeights{}, fmt.Errorf("aim: bits %d out of range [2,16]", opt.Bits)
	}
	if opt.Lambda == 0 {
		opt.Lambda = quant.DefaultLHROptions().Lambda
	}
	if opt.Window == 0 {
		opt.Window = quant.DefaultLHROptions().Window
	}
	if opt.WDSDelta != 0 && !quant.IsPow2(opt.WDSDelta) {
		return OptimizedWeights{}, fmt.Errorf("aim: WDS delta %d is not a power of two", opt.WDSDelta)
	}
	w := &tensor.Float{Shape: []int{len(weights)}, Data: append([]float64(nil), weights...)}
	base := quant.Quantize(w, opt.Bits)
	lam := opt.Lambda * 2 * base.HR()
	tuned := quant.ProximalTune(base.Codes.Data, opt.Bits, opt.Window, lam)
	after := &quant.Quantized{Codes: &tensor.Int{Shape: base.Codes.Shape, Data: tuned, Bits: opt.Bits}, Scale: base.Scale}
	out := OptimizedWeights{
		Scale:     after.Scale,
		WDSDelta:  opt.WDSDelta,
		HRBefore:  base.HR(),
		MeanDrift: quant.MeanAbsCodeDelta(base, after),
	}
	q := after
	if opt.WDSDelta > 0 {
		shifted, nOv := quant.ShiftWeights(q, opt.WDSDelta)
		q = shifted
		out.OverflowFrac = float64(nOv) / float64(len(weights))
	}
	out.Codes = q.Codes.Data
	out.HRAfter = q.HR()
	return out, nil
}

// TestOptimizeMatchesReference: Optimize equals the hand-written
// pass exactly on seeded random tensors across widths, λ, windows and
// δ, error cases included.
func TestOptimizeMatchesReference(t *testing.T) {
	g := xrand.New(31)
	opts := []OptimizeOptions{
		{},
		{Bits: 8, WDSDelta: 8},
		{Bits: 8, WDSDelta: 16, Lambda: 2.5, Window: 3},
		{Bits: 4, WDSDelta: 2, Window: 1},
		{Bits: 16, WDSDelta: 64, Lambda: 0.4},
		{Bits: 2, WDSDelta: 1},
		{Bits: 8, WDSDelta: 12},
		{Bits: 40},
	}
	for trial := 0; trial < 6; trial++ {
		weights := make([]float64, 1+g.Intn(3000))
		for i := range weights {
			weights[i] = g.Laplace(0, 0.02)
		}
		for _, opt := range opts {
			got, gotErr := Optimize(weights, opt)
			want, wantErr := optimizeReference(weights, opt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d %+v: error %v, reference %v", trial, opt, gotErr, wantErr)
			}
			if got.Scale != want.Scale || got.WDSDelta != want.WDSDelta || got.HRBefore != want.HRBefore ||
				got.HRAfter != want.HRAfter || got.MeanDrift != want.MeanDrift || got.OverflowFrac != want.OverflowFrac ||
				len(got.Codes) != len(want.Codes) {
				t.Fatalf("trial %d %+v:\n got       %+v\n reference %+v", trial, opt, got, want)
			}
			for i := range want.Codes {
				if got.Codes[i] != want.Codes[i] {
					t.Fatalf("trial %d %+v: code %d = %d, reference %d", trial, opt, i, got.Codes[i], want.Codes[i])
				}
			}
		}
	}
}
