package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"aim/internal/fxp"
)

// proximalTuneReference is ProximalTune as it stood before the per-call
// table: it searches the ±window neighbourhood once per code. It is the
// oracle the memoized form must match exactly.
func proximalTuneReference(codes []int32, bits, window int, lambdaBits float64) []int32 {
	out := make([]int32, len(codes))
	lo64, hi64 := int64(fxp.MinInt(bits)), int64(fxp.MaxInt(bits))
	for i, c0 := range codes {
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
		out[i] = best
	}
	return out
}

// oracleCodes returns codes for a width: every in-range code up to 10
// bits, a strided sweep with both ends above that, codes just and far
// outside [MinInt, MaxInt], and the int32 extremes, each twice so a
// table entry is both filled and read.
func oracleCodes(bits int) []int32 {
	lo, hi := int64(fxp.MinInt(bits)), int64(fxp.MaxInt(bits))
	step := int64(1)
	if bits > 10 {
		step = (hi - lo) / 997
	}
	var codes []int32
	for c := lo; c <= hi; c += step {
		codes = append(codes, int32(c))
	}
	codes = append(codes, int32(lo), int32(hi), 0, -1, 1)
	for _, c := range []int64{lo - 1, hi + 1, lo - 20, hi + 20, math.MinInt32, math.MaxInt32} {
		if c >= math.MinInt32 && c <= math.MaxInt32 {
			codes = append(codes, int32(c))
		}
	}
	return append(codes, codes...)
}

// TestProximalTuneMatchesReference: the table form must return the
// reference codes exactly at every width from 2 to 16 bits (table) and
// at 20 (search), for windows 0–16 and several penalties, including
// codes outside the width's range.
func TestProximalTuneMatchesReference(t *testing.T) {
	widths := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20}
	lambdas := []float64{0, 0.5, 1.1, 2, 4.4, 17.6, -3, math.Inf(1), math.NaN()}
	for _, bits := range widths {
		codes := oracleCodes(bits)
		for window := 0; window <= 16; window++ {
			for _, lam := range lambdas {
				got := ProximalTune(codes, bits, window, lam)
				want := proximalTuneReference(codes, bits, window, lam)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("bits %d window %d λ %v: code %d → %d, reference %d",
							bits, window, lam, codes[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// FuzzProximalTune checks ProximalTune against the reference search on
// fuzzed codes, widths 2–32, windows 0–32 and any penalty. Codes are
// scaled to about twice the width's range, so about half of them fall
// outside it.
func FuzzProximalTune(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff}, uint8(6), uint8(8), 2.2)
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f}, uint8(14), uint8(16), 0.0)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0}, uint8(0), uint8(0), -1.5)
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa}, uint8(30), uint8(3), math.NaN())
	f.Add([]byte{0x10, 0x20, 0x30, 0x40}, uint8(18), uint8(32), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, bitsSel, windowSel uint8, lam float64) {
		bits := 2 + int(bitsSel)%31
		window := int(windowSel) % 33
		shift := max(31-bits, 0)
		codes := make([]int32, 0, len(data)/4)
		for i := 0; i+4 <= len(data) && len(codes) < 512; i += 4 {
			codes = append(codes, int32(binary.LittleEndian.Uint32(data[i:]))>>shift)
		}
		got := ProximalTune(codes, bits, window, lam)
		want := proximalTuneReference(codes, bits, window, lam)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bits %d window %d λ %v: code %d → %d, reference %d",
					bits, window, lam, codes[i], got[i], want[i])
			}
		}
	})
}
