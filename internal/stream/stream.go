// Package stream generates the bit-serial input streams that drive the
// PIM simulator.
//
// In the paper's PIM dataflow (§2.1) the in-memory weights stay put
// while input activations are loaded bit-serially on the word lines:
// every cell k sees one input bit per cycle. The architecture-level
// Rtog metric (Eq. 1) depends only on the cycle-to-cycle *toggles* of
// those bit streams, so this package produces per-cell toggle sequences
// from synthetic activation data: spatially correlated post-ReLU
// "image" features for conv workloads, wider zero-mean token features
// for transformer workloads, plus the sign-off worst case where every
// bit toggles every cycle.
//
// All per-cycle bit vectors are packed: cell k lives in bit k%64 of
// word k/64 of a []uint64, so the Eq. 1 AND-with-weight-bits reduction
// downstream in internal/pim is word-wise AND + popcount instead of a
// byte walk. Pack and Unpack convert to the one-byte-per-bit layout at
// test boundaries.
package stream

import (
	"fmt"

	"aim/internal/fxp"
	"aim/internal/xrand"
)

// Words returns the number of 64-bit words that hold n packed cells.
func Words(n int) int { return (n + 63) / 64 }

// Pack converts a one-byte-per-bit vector (values 0/1) into packed
// words: cell k occupies bit k%64 of word k/64. Tail bits are zero.
func Pack(bits []uint8) []uint64 {
	out := make([]uint64, Words(len(bits)))
	for k, b := range bits {
		if b != 0 {
			out[k/64] |= 1 << uint(k%64)
		}
	}
	return out
}

// Unpack expands packed words back into one byte per bit for the first
// n cells — the test-boundary inverse of Pack.
func Unpack(words []uint64, n int) []uint8 {
	out := make([]uint8, n)
	for k := 0; k < n; k++ {
		out[k] = uint8(words[k/64] >> uint(k%64) & 1)
	}
	return out
}

// tailMask returns the mask of valid bits in the last word of an
// n-cell packed vector (all ones when n is a multiple of 64).
func tailMask(n int) uint64 {
	if r := n % 64; r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

// BitSerial converts a sequence of activation vectors into per-cycle
// input bit vectors: value v of cell k occupies bits cycles LSB-first,
// so a sequence of m vectors over n cells at width q yields m*q cycles.
type BitSerial struct {
	n, q   int
	cycles int
	// rows[t] holds the packed input bits of cycle t (bit k of the
	// word-split vector is cell k's line).
	rows [][]uint64
}

// NewBitSerial serializes the activation matrix acts[vector][cell]
// (quantized codes at width q) into a bit-serial stream. It rejects
// empty or ragged input and widths outside [2,32] with a descriptive
// error — this is a public entry point fed by file- and flag-derived
// data, so malformed shapes must not panic.
func NewBitSerial(acts [][]int32, q int) (*BitSerial, error) {
	if q < 2 || q > 32 {
		return nil, fmt.Errorf("stream: bit width %d outside [2,32]", q)
	}
	if len(acts) == 0 {
		return nil, fmt.Errorf("stream: empty activation sequence")
	}
	n := len(acts[0])
	if n == 0 {
		return nil, fmt.Errorf("stream: activation vectors have no cells")
	}
	s := &BitSerial{n: n, q: q, cycles: len(acts) * q}
	s.rows = make([][]uint64, 0, s.cycles)
	for vi, vec := range acts {
		if len(vec) != n {
			return nil, fmt.Errorf("stream: ragged activation matrix (vector %d has %d cells, want %d)", vi, len(vec), n)
		}
		for i := 0; i < q; i++ {
			row := make([]uint64, Words(n))
			for k, v := range vec {
				if fxp.Bit(v, i, q) != 0 {
					row[k/64] |= 1 << uint(k%64)
				}
			}
			s.rows = append(s.rows, row)
		}
	}
	return s, nil
}

// Cells returns the number of parallel input lines (cells).
func (s *BitSerial) Cells() int { return s.n }

// Cycles returns the stream length in cycles.
func (s *BitSerial) Cycles() int { return s.cycles }

// Bit returns the input bit of cell k at cycle t.
func (s *BitSerial) Bit(t, k int) uint8 {
	return uint8(s.rows[t][k/64] >> uint(k%64) & 1)
}

// Row returns the packed input bits of cycle t. The slice is shared
// with the stream; callers must not modify it.
func (s *BitSerial) Row(t int) []uint64 { return s.rows[t] }

// Toggles returns, for each cycle t in [1, Cycles), the packed per-cell
// toggle indicators I(k,t-1) XOR I(k,t) — the quantity Eq. 1 ANDs
// against the stored weight bits.
func (s *BitSerial) Toggles() [][]uint64 {
	out := make([][]uint64, s.cycles-1)
	for t := 1; t < s.cycles; t++ {
		row := make([]uint64, len(s.rows[t]))
		prev, cur := s.rows[t-1], s.rows[t]
		for w := range row {
			row[w] = prev[w] ^ cur[w]
		}
		out[t-1] = row
	}
	return out
}

// ToggleSource yields packed per-cycle toggle vectors; both serialized
// streams and synthetic toggle processes implement it.
type ToggleSource interface {
	// Cells returns the number of parallel lines.
	Cells() int
	// NextToggles fills dst (length Words(Cells())) with packed 0/1
	// toggle indicators for the next cycle and reports false when the
	// source is exhausted. Bits beyond Cells() in the last word stay 0.
	NextToggles(dst []uint64) bool
}

// serialToggles adapts BitSerial to ToggleSource.
type serialToggles struct {
	s *BitSerial
	t int
}

// ToggleStream returns a ToggleSource over the serialized bits.
func (s *BitSerial) ToggleStream() ToggleSource { return &serialToggles{s: s, t: 1} }

func (st *serialToggles) Cells() int { return st.s.n }

func (st *serialToggles) NextToggles(dst []uint64) bool {
	if st.t >= st.s.cycles {
		return false
	}
	prev, cur := st.s.rows[st.t-1], st.s.rows[st.t]
	for w := range dst {
		dst[w] = prev[w] ^ cur[w]
	}
	st.t++
	return true
}

// WorstCase is the sign-off testbench source: every line toggles every
// cycle, driving Rtog to its supremum HR (Eq. 4).
type WorstCase struct {
	N      int
	Cycles int
	t      int
}

// Cells implements ToggleSource.
func (w *WorstCase) Cells() int { return w.N }

// NextToggles implements ToggleSource.
func (w *WorstCase) NextToggles(dst []uint64) bool {
	if w.t >= w.Cycles {
		return false
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if len(dst) > 0 {
		dst[len(dst)-1] = tailMask(w.N)
	}
	w.t++
	return true
}

// Bernoulli is a synthetic toggle process where each line toggles
// independently with per-cycle probability drawn from a clipped normal
// distribution — the "100-step input flip sequence sampled from a
// normal distribution" of the paper's mapping evaluator (§5.6).
type Bernoulli struct {
	N      int
	Cycles int
	MeanP  float64
	SigmaP float64
	rng    *xrand.RNG
	t      int
}

// NewBernoulli constructs the process.
func NewBernoulli(n, cycles int, meanP, sigmaP float64, rng *xrand.RNG) *Bernoulli {
	return &Bernoulli{N: n, Cycles: cycles, MeanP: meanP, SigmaP: sigmaP, rng: rng}
}

// Cells implements ToggleSource.
func (b *Bernoulli) Cells() int { return b.N }

// NextToggles implements ToggleSource. The per-cell draws happen in
// cell order — the same RNG consumption as the historical byte-vector
// implementation, so fixed-seed streams are bit-identical across the
// packed refactor.
func (b *Bernoulli) NextToggles(dst []uint64) bool {
	if b.t >= b.Cycles {
		return false
	}
	p := b.rng.Normal(b.MeanP, b.SigmaP)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	b.rng.FillBernoulli(dst, b.N, p)
	b.t++
	return true
}
