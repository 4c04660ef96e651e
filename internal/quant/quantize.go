// Package quant implements the quantization toolchain the AIM software
// stack builds on: a symmetric fixed-point quantizer, the LHR (Lower
// Hamming Rate) regularizer of the paper's §5.3 with both its
// gradient-based form (Eq. 5/6) and a proximal fixed-point solver, the
// WDS shift of §5.4, a PTQ path (OmniQuant/BRECQ-lite) for Table 3,
// gradual magnitude pruning for Fig. 15, and Hamming-rate metrics over
// quantized layers. OptimizeLayer is the one offline pass that chains
// quantization, LHR and WDS over a tensor; every caller that deploys
// weights goes through it.
package quant

import (
	"fmt"
	"math"

	"aim/internal/fxp"
	"aim/internal/tensor"
)

// Quantized holds the integer codes of a tensor together with the
// symmetric per-tensor scale used to produce them: value ≈ code * Scale.
type Quantized struct {
	Codes *tensor.Int
	Scale float64
}

// Scale returns the symmetric quantization scale mapping the tensor's
// absolute maximum to the top code at the given bit width. It is
// always positive: an all-zero tensor, or one whose subnormal maximum
// underflows the division, gets scale 1.
func Scale(w *tensor.Float, bits int) float64 {
	m := w.AbsMax()
	s := m / float64(fxp.MaxInt(bits))
	if m == 0 || s == 0 {
		return 1
	}
	return s
}

// Quantize performs symmetric round-to-nearest quantization at the given
// bit width. This is the "baseline" quantizer the paper compares against
// (Nagel et al. white-paper QAT rounding behaviour).
func Quantize(w *tensor.Float, bits int) *Quantized {
	return QuantizeWithScale(w, bits, Scale(w, bits))
}

// QuantizeWithScale quantizes with an externally chosen scale (used when
// a tuned float tensor must share the scale of its pre-tuning original).
func QuantizeWithScale(w *tensor.Float, bits int, s float64) *Quantized {
	if s <= 0 {
		panic("quant: scale must be positive")
	}
	codes := tensor.NewInt(bits, w.Shape...)
	for i, v := range w.Data {
		codes.Data[i] = fxp.Clamp(int64(math.Round(v/s)), bits)
	}
	return &Quantized{Codes: codes, Scale: s}
}

// Dequantize maps codes back to float values.
func Dequantize(q *Quantized) *tensor.Float {
	out := tensor.NewFloat(q.Codes.Shape...)
	for i, c := range q.Codes.Data {
		out.Data[i] = float64(c) * q.Scale
	}
	return out
}

// HR returns the Hamming rate of the quantized codes (paper Eq. 3).
func (q *Quantized) HR() float64 {
	return fxp.HR(q.Codes.Data, q.Codes.Bits)
}

// Clone deep-copies the quantized tensor.
func (q *Quantized) Clone() *Quantized {
	return &Quantized{Codes: q.Codes.Clone(), Scale: q.Scale}
}

// MeanAbsCodeDelta returns the mean absolute difference between two code
// tensors, in code units. It is the perturbation measure the accuracy
// surrogate consumes.
func MeanAbsCodeDelta(a, b *Quantized) float64 {
	if len(a.Codes.Data) != len(b.Codes.Data) {
		panic(fmt.Sprintf("quant: code length mismatch %d != %d", len(a.Codes.Data), len(b.Codes.Data)))
	}
	if len(a.Codes.Data) == 0 {
		return 0
	}
	s := 0.0
	for i := range a.Codes.Data {
		d := float64(a.Codes.Data[i] - b.Codes.Data[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(a.Codes.Data))
}
