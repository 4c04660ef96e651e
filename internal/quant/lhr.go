package quant

import (
	"math"

	"aim/internal/fxp"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

// LHROptions controls the LHR regularizer (paper §5.3).
//
// Lambda is the regularization strength λ from Eq. 6 balancing Hamming
// reduction against the task-loss anchor. Window bounds how far (in code
// units) a weight may drift from its pre-tuning value — real QAT bounds
// this implicitly through the task loss; here the proximal anchor makes
// it explicit. Iters/LR/Jitter drive the gradient-descent form.
type LHROptions struct {
	Lambda float64 // HR regularization strength (code-units² per bit)
	Window int     // max drift from the original code, in code units
	Iters  int     // gradient descent iterations
	LR     float64 // gradient descent learning rate (code units)
	Jitter float64 // SGD-like noise magnitude to escape HR plateaus
}

// DefaultLHROptions mirrors the configuration used for the paper's QAT
// experiments on INT8 networks.
func DefaultLHROptions() LHROptions {
	return LHROptions{Lambda: 1.1, Window: 8, Iters: 400, LR: 0.02, Jitter: 18}
}

// GradientTune runs the gradient-based LHR optimization of Eq. 5/6 on a
// single layer: each float weight w with quantization scale s descends
//
//	L(w) = λ·2·HRlayer·InterpHR(w/s) + (w/s − w0/s)²/2
//
// where the interpolated Hamming rate supplies the (piecewise-linear)
// gradient of Eq. 5, and the quadratic proximal term stands in for the
// task loss that anchors weights near their trained values. The
// 2·HRlayer factor is the derivative of the squared per-layer Hamming
// loss of Eq. 6, which penalizes high-HR layers more strongly. A small
// jitter term plays the role of stochastic minibatch noise, letting
// weights escape the zero-gradient plateaus of the Hamming function.
// It returns the tuned float tensor; the caller quantizes it with the
// original scale.
func GradientTune(w *tensor.Float, scale float64, bits int, opt LHROptions, rng *xrand.RNG) *tensor.Float {
	if scale <= 0 {
		panic("quant: scale must be positive")
	}
	out := w.Clone()
	n := len(out.Data)
	if n == 0 {
		return out
	}
	orig := make([]float64, n) // original positions in code units
	cur := make([]float64, n)
	for i, v := range w.Data {
		orig[i] = v / scale
		cur[i] = orig[i]
	}
	win := float64(opt.Window)
	lr, jitter := opt.LR, opt.Jitter
	for it := 0; it < opt.Iters; it++ {
		// Per-layer HR of the current (interpolated) weights drives the
		// Eq. 6 squared-loss coefficient.
		hrLayer := 0.0
		for _, x := range cur {
			h, _ := fxp.InterpHR(x, bits)
			hrLayer += h
		}
		hrLayer /= float64(n)
		// Same objective as ProximalTune: λbits·Hamming + drift², with
		// λbits = λ·2·HRlayer. InterpHR's gradient is in rate units per
		// code step, so multiply by the bit width to get bits.
		coeff := opt.Lambda * 2 * hrLayer * float64(bits)
		for i, x := range cur {
			_, g := fxp.InterpHR(x, bits)
			grad := coeff*g + 2*(x-orig[i])
			x -= lr * grad
			if jitter > 0 {
				// Annealed stochastic kick: lets weights hop across the
				// Hamming function's zero-gradient plateaus and local
				// barriers early, then settle (simulated-annealing-like
				// cooling mirroring minibatch-noise decay in real QAT).
				x += lr * jitter * rng.Normal(0, 1)
			}
			// Hard window: task loss forbids larger drift.
			if x > orig[i]+win {
				x = orig[i] + win
			}
			if x < orig[i]-win {
				x = orig[i] - win
			}
			cur[i] = x
		}
		jitter *= 0.985
	}
	for i := range out.Data {
		out.Data[i] = cur[i] * scale
	}
	return out
}

// ProximalTune computes the fixed point the gradient form converges to:
// for each code c0 it selects the integer c within ±window minimizing
//
//	λbits·Hamming(c) + (c − c0)²
//
// with λbits the per-bit penalty in code-units². It is deterministic,
// fast, and is what the repository uses for large sweeps; TestGradient
// MatchesProximal verifies the two forms agree in distribution.
//
// The answer depends only on c0, so at widths up to 16 bits each
// in-range code's answer is searched once and kept in a per-call
// table; wider widths and out-of-range codes search every time.
func ProximalTune(codes []int32, bits, window int, lambdaBits float64) []int32 {
	out := make([]int32, len(codes))
	lo, hi := fxp.MinInt(bits), fxp.MaxInt(bits)
	var table []int32
	if bits <= maxTableBits {
		table = make([]int32, int(hi)-int(lo)+1)
		for i := range table {
			table[i] = unsearched
		}
	}
	for i, c0 := range codes {
		if table == nil || c0 < lo || c0 > hi {
			out[i] = proximalCode(c0, bits, window, lambdaBits)
			continue
		}
		t := &table[c0-lo]
		if *t == unsearched {
			*t = proximalCode(c0, bits, window, lambdaBits)
		}
		out[i] = *t
	}
	return out
}

// maxTableBits is the widest code ProximalTune memoizes: its table has
// 2^bits entries, 256 KiB at 16 bits but 16 GiB at 32.
const maxTableBits = 16

// unsearched marks a ProximalTune table entry not yet filled; no code
// of at most maxTableBits bits can equal it.
const unsearched = math.MinInt32

// proximalCode is ProximalTune's search for one code: the in-range
// code within ±window of c0 with the least cost, the smaller magnitude
// winning ties, or c0 itself when no candidate is in range.
func proximalCode(c0 int32, bits, window int, lambdaBits float64) int32 {
	lo64, hi64 := int64(fxp.MinInt(bits)), int64(fxp.MaxInt(bits))
	best := c0
	bestCost := math.Inf(1)
	for d := -window; d <= window; d++ {
		c := int64(c0) + int64(d)
		if c < lo64 || c > hi64 {
			continue
		}
		cost := lambdaBits*float64(fxp.Hamming(int32(c), bits)) + float64(d*d)
		if cost < bestCost || (cost == bestCost && abs64(c) < abs64(int64(best))) {
			bestCost = cost
			best = int32(c)
		}
	}
	return best
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// NetworkLoss computes the paper's Eq. 6 Hamming loss over a set of
// layers: the sum of squared per-layer average HRs.
func NetworkLoss(layers []*Quantized) float64 {
	s := 0.0
	for _, q := range layers {
		hr := q.HR()
		s += hr * hr
	}
	return s
}
