package quant

import (
	"math"
	"testing"

	"aim/internal/fxp"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

// quantizeReference is Quantize as it stood with its own rounding
// loop, before it went through QuantizeWithScale.
func quantizeReference(w *tensor.Float, bits int) *Quantized {
	s := Scale(w, bits)
	codes := tensor.NewInt(bits, w.Shape...)
	for i, v := range w.Data {
		codes.Data[i] = fxp.Clamp(int64(math.Round(v/s)), bits)
	}
	return &Quantized{Codes: codes, Scale: s}
}

// applyLHRReference is the LHR pass as it stood before OptimizeLayer:
// it quantizes, then tunes with the Eq. 6 per-layer weighting.
func applyLHRReference(w *tensor.Float, bits int, opt LHROptions) (before, after *Quantized, drift float64) {
	base := quantizeReference(w, bits)
	lam := opt.Lambda * 2 * base.HR()
	tuned := ProximalTune(base.Codes.Data, bits, opt.Window, lam)
	after = &Quantized{Codes: &tensor.Int{Shape: base.Codes.Shape, Data: tuned, Bits: bits}, Scale: base.Scale}
	return base, after, MeanAbsCodeDelta(base, after)
}

// optimizeLayerReference is the composition every caller wrote by hand
// before OptimizeLayer: Quantize, then the LHR pass (quantizing a
// second time), then ShiftWeights with the overflow fraction taken
// over the base codes.
func optimizeLayerReference(w *tensor.Float, bits int, lhr *LHROptions, delta int) OptimizedLayer {
	base := quantizeReference(w, bits)
	q := base
	drift := 0.0
	if lhr != nil {
		base, q, drift = applyLHRReference(w, bits, *lhr)
	}
	ovf := 0.0
	if delta > 0 {
		shifted, nOv := ShiftWeights(q, delta)
		q = shifted
		if n := len(base.Codes.Data); n > 0 {
			ovf = float64(nOv) / float64(n)
		}
	}
	return OptimizedLayer{Base: base, Deployed: q, HR: q.HR(), Drift: drift, OverflowFrac: ovf}
}

// sameQuantized reports whether two quantized tensors carry equal
// codes, width and scale.
func sameQuantized(a, b *Quantized) bool {
	if a.Scale != b.Scale || a.Codes.Bits != b.Codes.Bits || len(a.Codes.Data) != len(b.Codes.Data) {
		return false
	}
	for i := range a.Codes.Data {
		if a.Codes.Data[i] != b.Codes.Data[i] {
			return false
		}
	}
	return true
}

// checkOptimizeLayer fails t unless OptimizeLayer equals the reference
// composition exactly on w.
func checkOptimizeLayer(t *testing.T, w *tensor.Float, bits int, lhr *LHROptions, delta int) {
	t.Helper()
	got := OptimizeLayer(w, bits, lhr, delta)
	want := optimizeLayerReference(w, bits, lhr, delta)
	if !sameQuantized(got.Base, want.Base) || !sameQuantized(got.Deployed, want.Deployed) ||
		got.HR != want.HR || got.Drift != want.Drift || got.OverflowFrac != want.OverflowFrac {
		t.Fatalf("bits %d lhr %+v δ %d: got HR %v drift %v overflow %v, reference HR %v drift %v overflow %v (codes equal: base %v deployed %v)",
			bits, lhr, delta, got.HR, got.Drift, got.OverflowFrac, want.HR, want.Drift, want.OverflowFrac,
			sameQuantized(got.Base, want.Base), sameQuantized(got.Deployed, want.Deployed))
	}
}

// TestOptimizeLayerMatchesReference checks the one pass against the
// hand-written composition at every width from 2 to 16 bits, without
// LHR and with it over a sweep of λ and windows, at δ 0, 2, 8 and 16.
func TestOptimizeLayerMatchesReference(t *testing.T) {
	w := laplaceTensor(21, 4096, 0.02)
	lhrs := []*LHROptions{nil}
	for _, lambda := range []float64{0.3, 0.7, 1.1, 1.6, 2.5, 4} {
		for _, window := range []int{1, 3, 8} {
			opt := DefaultLHROptions()
			opt.Lambda, opt.Window = lambda, window
			lhrs = append(lhrs, &opt)
		}
	}
	for bits := 2; bits <= 16; bits++ {
		for _, lhr := range lhrs {
			for _, delta := range []int{0, 2, 8, 16} {
				checkOptimizeLayer(t, w, bits, lhr, delta)
			}
		}
	}
}

// TestOptimizeLayerAliasesBaseWhenOff: with LHR and WDS both off the
// deployed codes are the base codes, as the hand-written loops had it.
func TestOptimizeLayerAliasesBaseWhenOff(t *testing.T) {
	r := OptimizeLayer(laplaceTensor(22, 64, 0.02), 8, nil, 0)
	if r.Deployed != r.Base || r.Drift != 0 || r.OverflowFrac != 0 {
		t.Fatalf("off pass: deployed %p base %p drift %v overflow %v", r.Deployed, r.Base, r.Drift, r.OverflowFrac)
	}
}

// FuzzOptimizeLayer checks OptimizeLayer against the reference
// composition on weights drawn from a fuzzed seed, widths 2–16, LHR
// windows 0–16, any λ, LHR on or off, and δ zero or a power of two
// up to 2^16.
func FuzzOptimizeLayer(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(6), uint8(8), 1.1, true, uint8(4))
	f.Add(int64(2), uint16(0), uint8(0), uint8(0), 0.0, false, uint8(0))
	f.Add(int64(3), uint16(2047), uint8(14), uint8(16), 4.4, true, uint8(5))
	f.Add(int64(4), uint16(100), uint8(2), uint8(2), -1.0, true, uint8(17))
	f.Add(int64(5), uint16(33), uint8(9), uint8(3), math.NaN(), false, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nSel uint16, bitsSel, windowSel uint8, lambda float64, useLHR bool, deltaSel uint8) {
		n := 1 + int(nSel)%2048
		bits := 2 + int(bitsSel)%15
		delta := 0
		if k := int(deltaSel) % 18; k > 0 {
			delta = 1 << (k - 1)
		}
		g := xrand.New(seed)
		w := tensor.NewFloat(n)
		for i := range w.Data {
			w.Data[i] = g.Laplace(0, 0.02)
		}
		var lhr *LHROptions
		if useLHR {
			opt := DefaultLHROptions()
			opt.Lambda = lambda
			opt.Window = int(windowSel) % 17
			lhr = &opt
		}
		checkOptimizeLayer(t, w, bits, lhr, delta)
	})
}
