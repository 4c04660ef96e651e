package quant

import "aim/internal/tensor"

// OptimizedLayer is one weight tensor after the offline pass.
type OptimizedLayer struct {
	// Base holds the baseline round-to-nearest codes.
	Base *Quantized
	// Deployed holds the codes after LHR and the WDS shift; it is Base
	// itself when both are off.
	Deployed *Quantized
	// HR is the Hamming rate of Deployed.
	HR float64
	// Drift is the mean absolute code movement LHR caused (0 without
	// LHR), consumed by the accuracy surrogate.
	Drift float64
	// OverflowFrac is the fraction of codes the WDS shift clamped.
	OverflowFrac float64
}

// OptimizeLayer is the AIM offline pass over one tensor: it quantizes
// w once at the given width, then, when lhr is non-nil, applies the
// LHR proximal tuner (§5.3) with its per-bit penalty scaled by the
// base codes' own HR (the Eq. 6 weighting: high-HR layers receive a
// stronger penalty), then, when delta > 0, the WDS shift of
// Algorithm 1 (§5.4) with its overflow clamp. The caller checks that
// delta is a power of two.
func OptimizeLayer(w *tensor.Float, bits int, lhr *LHROptions, delta int) OptimizedLayer {
	base := Quantize(w, bits)
	r := OptimizedLayer{Base: base, Deployed: base}
	if lhr != nil {
		lam := lhr.Lambda * 2 * base.HR()
		tuned := ProximalTune(base.Codes.Data, bits, lhr.Window, lam)
		r.Deployed = &Quantized{Codes: &tensor.Int{Shape: base.Codes.Shape, Data: tuned, Bits: bits}, Scale: base.Scale}
		r.Drift = MeanAbsCodeDelta(base, r.Deployed)
	}
	if delta > 0 {
		shifted, overflow := ShiftWeights(r.Deployed, delta)
		r.Deployed = shifted
		if n := len(base.Codes.Data); n > 0 {
			r.OverflowFrac = float64(overflow) / float64(n)
		}
	}
	r.HR = r.Deployed.HR()
	return r
}
