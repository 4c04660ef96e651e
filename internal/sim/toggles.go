package sim

import (
	"fmt"

	"aim/internal/pim"
	"aim/internal/xrand"
)

// Fidelity selects the simulator's modelling tier: how the wave loop
// produces per-cycle macro activity (Rtog) and how that activity
// becomes a per-group IR-drop (the irdrop.DropEstimator layer).
type Fidelity int

const (
	// AnalyticToggles models each task's Rtog as flip-intensity × HR
	// and each group's drop as the scalar Eq. 2 of its own activity —
	// the fast closed-form default, bit-identical to the historical
	// simulator.
	AnalyticToggles Fidelity = iota
	// PackedToggles runs the microarchitectural Eq. 1 engine instead:
	// every occupied task gets a synthetic weight bank at its HR, each
	// group draws packed Bernoulli toggles on its shared input lines,
	// and Rtog is the word-wise AND+popcount of toggles against the
	// stored bit planes. E[Rtog] still equals flip-intensity × HR, but
	// the per-cycle value carries the real binomial cell-level
	// variance the analytic model averages away. Drops stay scalar
	// Eq. 2.
	PackedToggles
	// SpatialPDN is the top tier: PackedToggles activity feeding the
	// spatially-resolved drop estimator — per cycle-window the group
	// activity vector sets the die's current map, the power-delivery
	// mesh's drop field follows (summed from a shared per-tile
	// response table on the 16-group die, a warm-started multigrid
	// solve on larger ones), and each group's drop is read from its
	// own floorplan tiles, so real neighbour coupling replaces most of
	// the analytic NoiseMV term. Each wave shard owns its own
	// estimator session; results are bit-identical for any worker
	// count.
	SpatialPDN
)

// Valid reports whether f names a fidelity tier.
func (f Fidelity) Valid() bool { return f >= AnalyticToggles && f <= SpatialPDN }

// ParseFidelity resolves a tier's CLI spelling (the String values;
// "" means the analytic default). It is the single string↔tier
// mapping the public API and the CLIs share.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "analytic", "":
		return AnalyticToggles, nil
	case "packed":
		return PackedToggles, nil
	case "spatial":
		return SpatialPDN, nil
	default:
		return 0, fmt.Errorf("unknown fidelity %q (want %q, %q or %q)",
			s, AnalyticToggles, PackedToggles, SpatialPDN)
	}
}

// String names the tier the way the CLIs spell it.
func (f Fidelity) String() string {
	switch f {
	case AnalyticToggles:
		return "analytic"
	case PackedToggles:
		return "packed"
	case SpatialPDN:
		return "spatial"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// groupToggles is one macro group's PackedToggles engine: the shared
// packed input-line toggles plus a synthetic bank per occupied task.
// The tests hold pim's one-byte-per-bit Rtog as its cycle-by-cycle
// reference (TestGroupTogglesMatchesBytesReference).
type groupToggles struct {
	banks     []*pim.Bank // parallel to groupRun.occupied
	words     []uint64
	cells     int
	totalBits int
	worstOnes int
}

// newGroupToggles builds one synthetic CellsPerBank-cell bank per
// occupied task, with every stored weight bit drawn Bernoulli(HR) so
// the bank's Hamming rate matches the task's HR in expectation — the
// microarchitectural analogue of the analytic rtog = p·HR model.
// The engine lives in the chunk worker's scratch; reusing pooled
// buffers never moves an RNG draw, so the engine's bits are those of a
// fresh build.
func newGroupToggles(cfg pim.Config, taskHRs []float64, rng *xrand.RNG, scratch *waveScratch) *groupToggles {
	n, q := cfg.CellsPerBank, cfg.WeightBits
	gt := scratch.toggles()
	gt.cells = n
	gt.totalBits = n * q
	gt.words = scratch.wordBuf(n)
	codes, bits := scratch.codeBuf(n), scratch.codeBits(n*q)
	for _, hr := range taskHRs {
		drawCodes(codes, q, hr, rng, bits)
		gt.banks = append(gt.banks, scratch.bank(codes, n, q))
	}
	return gt
}

// drawCodes fills codes with q-bit weights whose every bit is
// Bernoulli(hr), drawn cell-major then bit-minor: bit i of code k is
// draw k·q+i. One bulk fill into bits draws them all; each code is
// then sliced out of bits [k·q, k·q+q).
func drawCodes(codes []int32, q int, hr float64, rng *xrand.RNG, bits []uint64) {
	rng.FillBernoulli(bits, len(codes)*q, hr)
	mask := uint64(1)<<uint(q) - 1
	for k := range codes {
		off := k * q
		w, b := off/64, uint(off%64)
		code := bits[w] >> b
		if b+uint(q) > 64 {
			code |= bits[w+1] << (64 - b)
		}
		codes[k] = valueOfCode(uint32(code&mask), q)
	}
}

// valueOfCode inverts fxp.Code: the signed value whose q-bit two's
// complement code is the given bit pattern.
func valueOfCode(code uint32, q int) int32 {
	if code>>uint(q-1)&1 != 0 {
		return int32(code) - int32(1)<<uint(q)
	}
	return int32(code)
}

// next draws the group's shared input-line toggles for one cycle at
// flip intensity p, one draw per cell in cell order, and resets the
// cycle's worst-task accounting.
func (gt *groupToggles) next(p float64, rng *xrand.RNG) {
	rng.FillBernoulli(gt.words, gt.cells, p)
	gt.worstOnes = 0
}

// rtog returns occupied-task i's Rtog against this cycle's shared
// toggles, tracking the group's worst task for the drop estimate.
func (gt *groupToggles) rtog(i int) float64 {
	ones := gt.banks[i].RtogCounts(gt.words)
	if ones > gt.worstOnes {
		gt.worstOnes = ones
	}
	return float64(ones) / float64(gt.totalBits)
}

// activity returns the cycle's worst-task Rtog — the group's entry in
// the DropEstimator activity vector: the raw worst popcount divided,
// once, by the group's stored bits.
func (gt *groupToggles) activity() float64 {
	return float64(gt.worstOnes) / float64(gt.totalBits)
}
