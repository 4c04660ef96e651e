// Package fxp provides fixed-point, two's-complement bit utilities that
// underpin the AIM architecture-level metrics.
//
// All PIM in-memory data in this repository is represented as signed
// integers quantized to a bit width q (typically 8 or 4). The Hamming
// metrics defined by the paper (HM and HR, Eq. 3) count the valid bits
// (1s) of the two's-complement encoding of each stored value, so this
// package is the single source of truth for "how many 1s does the code
// of value v at width q have".
package fxp

import "math/bits"

// MaxInt returns the maximum representable signed value at width q,
// i.e. 2^(q-1)-1. Panics if q is not in [2, 32].
func MaxInt(q int) int32 {
	checkWidth(q)
	return int32(1)<<(q-1) - 1
}

// MinInt returns the minimum representable signed value at width q,
// i.e. -2^(q-1).
func MinInt(q int) int32 {
	checkWidth(q)
	return -(int32(1) << (q - 1))
}

func checkWidth(q int) {
	if q < 2 || q > 32 {
		panic("fxp: bit width out of range [2,32]")
	}
}

// Clamp saturates v into the representable range at width q.
func Clamp(v int64, q int) int32 {
	lo, hi := int64(MinInt(q)), int64(MaxInt(q))
	if v < lo {
		return int32(lo)
	}
	if v > hi {
		return int32(hi)
	}
	return int32(v)
}

// Code returns the two's-complement code of v at width q as an unsigned
// value with the q low bits populated. v must be representable at width q.
func Code(v int32, q int) uint32 {
	checkWidth(q)
	if v < MinInt(q) || v > MaxInt(q) {
		panic("fxp: value not representable at width")
	}
	mask := uint32(1)<<uint(q) - 1
	return uint32(v) & mask
}

// Hamming returns the number of 1 bits in the two's-complement code of v
// at width q. This is the per-value HM of the paper's Eq. 3.
func Hamming(v int32, q int) int {
	return bits.OnesCount32(Code(v, q))
}

// Bit returns bit i (0 = LSB) of the two's-complement code of v at width q.
func Bit(v int32, i, q int) uint32 {
	if i < 0 || i >= q {
		panic("fxp: bit index out of range")
	}
	return (Code(v, q) >> uint(i)) & 1
}

// HM returns the Hamming value of a slice of quantized weights: the total
// count of 1 bits across all two's-complement codes at width q (Eq. 3).
func HM(ws []int32, q int) int {
	total := 0
	for _, w := range ws {
		total += Hamming(w, q)
	}
	return total
}

// HR returns the Hamming rate of a slice of quantized weights:
// HM / (n*q), the fraction of valid bits among all stored bits (Eq. 3).
// HR of an empty slice is 0.
func HR(ws []int32, q int) float64 {
	if len(ws) == 0 {
		return 0
	}
	return float64(HM(ws, q)) / float64(len(ws)*q)
}

// HRInt8 is a convenience HR over int8 data at width 8, the dominant
// configuration in the paper.
func HRInt8(ws []int8) float64 {
	if len(ws) == 0 {
		return 0
	}
	total := 0
	for _, w := range ws {
		total += bits.OnesCount8(uint8(w))
	}
	return float64(total) / float64(len(ws)*8)
}

// HammingTable returns a lookup table t where t[Code(v,q)] = Hamming(v,q)
// for every representable v. Index the table with Code(v, q).
func HammingTable(q int) []int {
	checkWidth(q)
	n := 1 << uint(q)
	t := make([]int, n)
	for c := 0; c < n; c++ {
		t[c] = bits.OnesCount32(uint32(c))
	}
	return t
}

// InterpHR returns the linearly interpolated Hamming rate of a
// floating-point value x located between its two neighbouring integers
// at width q (paper Eq. 5, used by the LHR regularizer), together with
// the gradient d(HR)/dx. The per-value HR is Hamming/q so it lies in
// [0,1]. Values outside the representable range are clamped, where the
// gradient is 0.
func InterpHR(x float64, q int) (hr, grad float64) {
	lo := int64(floorF(x))
	hi := lo + 1
	if float64(lo) == x {
		hi = lo
	}
	cl := fclampI(lo, q)
	ch := fclampI(hi, q)
	hLo := float64(Hamming(cl, q)) / float64(q)
	hHi := float64(Hamming(ch, q)) / float64(q)
	if cl == ch {
		return hLo, 0
	}
	p := x - float64(lo)
	return (1-p)*hLo + p*hHi, hHi - hLo
}

func fclampI(v int64, q int) int32 { return Clamp(v, q) }

// floorF is math.Floor without importing math, exact for the small
// magnitudes used by quantized weights.
func floorF(x float64) float64 {
	i := int64(x)
	f := float64(i)
	if x < f {
		return f - 1
	}
	return f
}
