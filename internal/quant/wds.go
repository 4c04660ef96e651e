package quant

import (
	"aim/internal/fxp"
	"aim/internal/tensor"
)

// WDS implements the Weight Distribution Shift of the paper's §5.4
// (Algorithm 1): add a constant δ to every quantized weight offline,
// clamping at INT_MAX of the bit width to avoid overflow into negative
// codes, and compensate after the matrix multiplication with
// Correction = −Sum(Input)·δ.
//
// δ must be a power of two so the hardware shift compensator can
// replace the multiplication with a bit shift (§5.4.2, Fig. 8).

// ShiftWeights returns a new Quantized with δ added to every code,
// clamped to the top of the representable range, plus the number of
// clamped (overflowed) codes. Negative δ is rejected: WDS only shifts
// toward positive values.
func ShiftWeights(q *Quantized, delta int) (*Quantized, int) {
	if delta < 0 {
		panic("quant: WDS delta must be non-negative")
	}
	bits := q.Codes.Bits
	hi := fxp.MaxInt(bits)
	out := q.Clone()
	overflow := 0
	for i, c := range out.Codes.Data {
		v := int64(c) + int64(delta)
		if v > int64(hi) {
			v = int64(hi)
			overflow++
		}
		out.Codes.Data[i] = int32(v)
	}
	return out, overflow
}

// IsPow2 reports whether delta is zero or a power of two — the legal δ
// values for the shift compensator.
func IsPow2(delta int) bool {
	return delta >= 0 && delta&(delta-1) == 0
}

// Correction computes the WDS compensation term for one output column:
// −Sum(inputs)·δ (Algorithm 1 line 9). Inputs are the integer input
// activations that multiplied the shifted weights.
func Correction(inputs []int32, delta int) int64 {
	var sum int64
	for _, x := range inputs {
		sum += int64(x)
	}
	return -sum * int64(delta)
}

// MatmulWithWDS runs the full Algorithm 1 on an integer matmul:
// out = (W + δ)·X + Correction. For codes that did not clamp, the
// result is bit-exact equal to W·X (verified by property tests). W is
// (m,k); X is (k,n).
func MatmulWithWDS(w *Quantized, x *tensor.Int, delta int) [][]int64 {
	shifted, _ := ShiftWeights(w, delta)
	out := tensor.MatMulInt(shifted.Codes, x)
	k := x.Shape[0]
	n := x.Shape[1]
	col := make([]int32, k)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			col[p] = x.Data[p*n+j]
		}
		corr := Correction(col, delta)
		for i := range out {
			out[i][j] += corr
		}
	}
	return out
}
