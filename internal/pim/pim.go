// Package pim is the cycle-level bit-serial SRAM PIM macro simulator:
// banks of SRAM cells holding quantized weights, bit-serial word-line
// inputs, adder-tree accumulation, the Rtog activity engine (paper
// Eq. 1), and the WDS shift compensator hardware model (Fig. 8).
//
// The chip the paper evaluates — a 7nm, 256-TOPS design with 16 macro
// groups of 4 macros each — is the package's default geometry.
package pim

import (
	"fmt"
	"math/bits"

	"aim/internal/fxp"
	"aim/internal/stream"
)

// MacroKind distinguishes the two SRAM PIM families of §2.1.
type MacroKind int

const (
	// DPIM accumulates digitally through adder trees (Fig. 1b).
	DPIM MacroKind = iota
	// APIM accumulates as analog bit-line voltage read by ADCs (Fig. 1a).
	APIM
)

// String names the kind.
func (k MacroKind) String() string {
	if k == APIM {
		return "APIM"
	}
	return "DPIM"
}

// Config describes the chip geometry.
type Config struct {
	Kind           MacroKind
	Groups         int // macro groups sharing power and frequency
	MacrosPerGroup int
	BanksPerMacro  int
	CellsPerBank   int // weights per bank (word lines)
	WeightBits     int
}

// DefaultConfig is the paper's 7nm 256-TOPS DPIM chip: 16 groups × 4
// macros (§6.1), with 64 banks of 128 cells per macro.
func DefaultConfig() Config {
	return Config{Kind: DPIM, Groups: 16, MacrosPerGroup: 4, BanksPerMacro: 64, CellsPerBank: 128, WeightBits: 8}
}

// Macros returns the total macro count.
func (c Config) Macros() int { return c.Groups * c.MacrosPerGroup }

// WeightsPerMacro returns the weight capacity of one macro.
func (c Config) WeightsPerMacro() int { return c.BanksPerMacro * c.CellsPerBank }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Groups <= 0 || c.MacrosPerGroup <= 0 || c.BanksPerMacro <= 0 || c.CellsPerBank <= 0 {
		return fmt.Errorf("pim: non-positive geometry %+v", c)
	}
	if c.WeightBits < 2 || c.WeightBits > 16 {
		return fmt.Errorf("pim: weight bits %d out of range", c.WeightBits)
	}
	return nil
}

// Bank is one SRAM bank: CellsPerBank stored weights engaged in
// bit-wise multiplication with the shared bit-serial input lines.
//
// Besides the integer weight codes, the bank keeps its storage in the
// packed form Eq. 1 consumes: one weight-bit plane per bit position,
// with cell k at bit k%64 of word k/64 — so the per-cycle Rtog
// numerator is a word-wise AND + popcount over the planes.
type Bank struct {
	weights []int32
	hams    []int // cached per-cell Hamming weights
	// planes[i] is the packed mask of bit i across cells: bit k of the
	// word-split vector is fxp.Bit(weights[k], i, bits).
	planes [][]uint64
	bits   int
	hm     int
}

// NewBank stores the given weight codes (length ≤ cells; the rest of
// the bank holds zeros, as unused rows do in silicon).
func NewBank(codes []int32, cells, bits int) *Bank {
	b := &Bank{weights: make([]int32, cells), hams: make([]int, cells), bits: bits}
	b.planes = make([][]uint64, bits)
	for i := range b.planes {
		b.planes[i] = make([]uint64, stream.Words(cells))
	}
	b.load(codes)
	return b
}

// LoadBank refills a bank with new codes in place, reusing its storage
// when the geometry matches — the per-wave synthetic-bank churn in the
// simulator's hot path would otherwise reallocate every plane for
// every task on every wave. A nil bank or a geometry change allocates
// fresh. Returns the loaded bank.
func LoadBank(b *Bank, codes []int32, cells, bits int) *Bank {
	if b == nil || len(b.weights) != cells || b.bits != bits {
		return NewBank(codes, cells, bits)
	}
	for i := range b.planes {
		clear(b.planes[i])
	}
	b.load(codes)
	return b
}

// load (re)derives the packed planes and Hamming caches from codes;
// planes must be zeroed.
func (b *Bank) load(codes []int32) {
	if len(codes) > len(b.weights) {
		panic("pim: more codes than cells")
	}
	copy(b.weights, codes)
	clear(b.weights[len(codes):])
	b.hm = 0
	for k, w := range b.weights {
		h := fxp.Hamming(w, b.bits)
		b.hams[k] = h
		b.hm += h
		code := fxp.Code(w, b.bits)
		for i := 0; i < b.bits; i++ {
			if code>>uint(i)&1 != 0 {
				b.planes[i][k/64] |= 1 << uint(k%64)
			}
		}
	}
}

// BitPlane returns the packed weight mask of bit position i (cell k at
// bit k%64 of word k/64). The slice is shared; callers must not modify
// it.
func (b *Bank) BitPlane(i int) []uint64 { return b.planes[i] }

// Cells returns the bank size.
func (b *Bank) Cells() int { return len(b.weights) }

// HR returns the Hamming rate of the bank's stored weights.
func (b *Bank) HR() float64 {
	if len(b.weights) == 0 {
		return 0
	}
	return float64(b.hm) / float64(len(b.weights)*b.bits)
}

// RtogCycle evaluates Eq. 1 for one cycle: the fraction of stored
// weight bits ANDed with a toggling input line,
//
//	Rtog = Σ_k Hamming(W_k)·toggle_k / (n·q),
//
// computed word-wise: the numerator is Σ_i popcount(plane_i AND T)
// over the packed weight-bit planes. toggles holds the packed toggle
// indicators (length stream.Words(Cells())).
func (b *Bank) RtogCycle(toggles []uint64) float64 {
	return float64(b.RtogCounts(toggles)) / float64(len(b.weights)*b.bits)
}

// RtogCounts returns the integer Eq. 1 numerator for one cycle: the
// number of stored weight bits whose input line toggles. The Rtog
// denominator is Cells()·weight bits.
func (b *Bank) RtogCounts(toggles []uint64) int {
	if len(toggles) != stream.Words(len(b.weights)) {
		panic("pim: packed toggle width != bank cells")
	}
	sum := 0
	for _, plane := range b.planes {
		for w, m := range plane {
			sum += bits.OnesCount64(m & toggles[w])
		}
	}
	return sum
}

// RtogCycleBytes is the legacy one-byte-per-bit Rtog evaluation. It is
// retained as the scalar reference implementation: equivalence tests
// and benchmarks compare the packed word-wise path against it.
func (b *Bank) RtogCycleBytes(toggles []uint8) float64 {
	if len(toggles) != len(b.weights) {
		panic("pim: toggle width != bank cells")
	}
	sum := 0
	for k, tg := range toggles {
		if tg != 0 {
			sum += b.hams[k]
		}
	}
	return float64(sum) / float64(len(b.weights)*b.bits)
}

// DotSerial computes the bank's multiply-accumulate for one input
// vector, bit-serially: partial products of each input bit plane are
// shifted and added exactly as the shift-adder of Fig. 1 does.
func (b *Bank) DotSerial(input []int32, inBits int) int64 {
	if len(input) != len(b.weights) {
		panic("pim: input width != bank cells")
	}
	var acc int64
	for i := 0; i < inBits; i++ {
		var plane int64
		for k, w := range b.weights {
			bit := int64(fxp.Bit(input[k], i, inBits))
			plane += bit * int64(w)
		}
		if i == inBits-1 {
			// Two's complement: the MSB plane carries negative weight.
			acc -= plane << uint(i)
		} else {
			acc += plane << uint(i)
		}
	}
	return acc
}

// DotDirect is the reference integer dot product used to verify the
// bit-serial path.
func (b *Bank) DotDirect(input []int32) int64 {
	var acc int64
	for k, w := range b.weights {
		acc += int64(w) * int64(input[k])
	}
	return acc
}

// Macro is a PIM macro: banks sharing the same bit-serial input lines
// (§5.4.2: "All banks within a Macro share the same input streams").
//
// Because every bank sees the same toggle vector T, the macro's Eq. 1
// numerator collapses to Σ_k H(k)·T_k where H(k) is the total Hamming
// weight stored on input line k across all banks. The macro keeps H in
// bit-sliced packed form (hamPlanes[j] holds bit j of H(k) at packed
// position k), so one cycle costs ⌈log2(max H)+1⌉ AND+popcount passes
// over ⌈cells/64⌉ words instead of a banks×cells byte walk.
type Macro struct {
	cfg   Config
	banks []*Bank
	hm    int
	cells int
	// hamPlanes is the bit-sliced per-line total Hamming weight:
	// Σ_k H(k)·T_k = Σ_j 2^j · popcount(hamPlanes[j] AND T).
	hamPlanes [][]uint64
}

// NewMacro loads weight codes into a macro, filling banks in order;
// len(codes) must not exceed the macro capacity.
func NewMacro(cfg Config, codes []int32) *Macro {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(codes) > cfg.WeightsPerMacro() {
		panic("pim: weight count exceeds macro capacity")
	}
	m := &Macro{cfg: cfg}
	for start := 0; start < len(codes) || len(m.banks) < cfg.BanksPerMacro; start += cfg.CellsPerBank {
		if len(m.banks) == cfg.BanksPerMacro {
			break
		}
		end := start + cfg.CellsPerBank
		if end > len(codes) {
			end = len(codes)
		}
		var chunk []int32
		if start < len(codes) {
			chunk = codes[start:end]
		}
		bank := NewBank(chunk, cfg.CellsPerBank, cfg.WeightBits)
		m.banks = append(m.banks, bank)
		m.hm += bank.hm
		m.cells += bank.Cells()
	}
	// Bit-slice the per-line total Hamming weights across banks.
	lineHams := make([]int, cfg.CellsPerBank)
	maxHam := 0
	for _, b := range m.banks {
		for k, h := range b.hams {
			lineHams[k] += h
			if lineHams[k] > maxHam {
				maxHam = lineHams[k]
			}
		}
	}
	m.hamPlanes = make([][]uint64, bits.Len(uint(maxHam)))
	for j := range m.hamPlanes {
		plane := make([]uint64, stream.Words(cfg.CellsPerBank))
		for k, h := range lineHams {
			if h>>uint(j)&1 != 0 {
				plane[k/64] |= 1 << uint(k%64)
			}
		}
		m.hamPlanes[j] = plane
	}
	return m
}

// Config returns the macro geometry.
func (m *Macro) Config() Config { return m.cfg }

// Banks returns the macro's banks.
func (m *Macro) Banks() []*Bank { return m.banks }

// HR returns the Hamming rate over all stored weights of the macro —
// the quantity IR-Booster receives per macro after task mapping.
func (m *Macro) HR() float64 {
	if m.cells == 0 {
		return 0
	}
	return float64(m.hm) / float64(m.cells*m.cfg.WeightBits)
}

// RtogCycle returns the macro-average Rtog for one cycle; toggles are
// the packed shared input-line toggles (stream.Words(CellsPerBank)
// words). The sum runs over the bit-sliced Hamming planes, so a
// default-geometry macro (64 banks × 128 cells) costs ~20 AND+popcount
// word operations instead of an 8192-step byte walk.
func (m *Macro) RtogCycle(toggles []uint64) float64 {
	if len(toggles) != stream.Words(m.cfg.CellsPerBank) {
		panic("pim: packed toggle width != cells per bank")
	}
	sum := 0
	for j, plane := range m.hamPlanes {
		c := 0
		for w, mask := range plane {
			c += bits.OnesCount64(mask & toggles[w])
		}
		sum += c << uint(j)
	}
	return float64(sum) / float64(m.cells*m.cfg.WeightBits)
}

// RtogCycleBytes is the legacy one-byte-per-bit macro Rtog walk,
// retained as the scalar reference implementation for equivalence
// tests and benchmarks.
func (m *Macro) RtogCycleBytes(toggles []uint8) float64 {
	sum := 0
	for _, b := range m.banks {
		for k, tg := range toggles {
			if tg != 0 {
				sum += b.hams[k]
			}
		}
	}
	return float64(sum) / float64(m.cells*m.cfg.WeightBits)
}

// RtogTrace runs a toggle source to exhaustion (or maxCycles, if
// positive) and returns the per-cycle macro Rtog series.
func (m *Macro) RtogTrace(src stream.ToggleSource, maxCycles int) []float64 {
	if src.Cells() != m.cfg.CellsPerBank {
		panic("pim: toggle source width != cells per bank")
	}
	dst := make([]uint64, stream.Words(src.Cells()))
	var out []float64
	for src.NextToggles(dst) {
		out = append(out, m.RtogCycle(dst))
		if maxCycles > 0 && len(out) >= maxCycles {
			break
		}
	}
	return out
}
