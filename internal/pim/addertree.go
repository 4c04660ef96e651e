package pim

import "aim/internal/fxp"

// AdderTree models the digital accumulation fabric of a DPIM bank
// (Fig. 1b) at the register level: a binary tree reducing the per-cell
// partial products. Its switching activity — the number of register
// bits that flip between consecutive cycles — is what the §7 "pure
// adder tree" evaluation (Fig. 22b) measures: even without SRAM
// bit-cells, the tree's toggles scale with the Hamming content of the
// operands, so HR optimization mitigates IR-drop in any bit-serial MAC
// fabric (TPU/GPU-style datapaths included).
type AdderTree struct {
	leaves int
	bits   int
	// nodes holds the previous cycle's value of every internal node,
	// level by level, for toggle counting.
	nodes [][]int64
}

// NewAdderTree builds a tree over the given number of leaves (rounded
// up to a power of two) with the given register width for toggle
// accounting.
func NewAdderTree(leaves, bits int) *AdderTree {
	if leaves <= 0 {
		panic("pim: adder tree needs at least one leaf")
	}
	n := 1
	for n < leaves {
		n *= 2
	}
	t := &AdderTree{leaves: n, bits: bits}
	for width := n / 2; width >= 1; width /= 2 {
		t.nodes = append(t.nodes, make([]int64, width))
	}
	return t
}

// Reduce accumulates one cycle's partial products through the tree,
// returning the root sum and the number of register bits that toggled
// versus the previous cycle. Inputs shorter than the (rounded-up)
// leaf count are zero-padded.
func (t *AdderTree) Reduce(products []int64) (sum int64, toggles int) {
	if len(products) > t.leaves {
		panic("pim: too many products for tree")
	}
	cur := make([]int64, t.leaves)
	copy(cur, products)
	for lvl := range t.nodes {
		next := t.nodes[lvl]
		for i := range next {
			v := cur[2*i] + cur[2*i+1]
			toggles += toggleBits(next[i], v, t.bits)
			next[i] = v
		}
		cur = next
	}
	return cur[0], toggles
}

// toggleBits counts differing bits between two register values at the
// given width (saturating into range first: real registers are sized).
func toggleBits(a, b int64, bits int) int {
	ca := fxp.Code(fxp.Clamp(a, bits), bits)
	cb := fxp.Code(fxp.Clamp(b, bits), bits)
	x := ca ^ cb
	n := 0
	for x != 0 {
		n += int(x & 1)
		x >>= 1
	}
	return n
}

// ActivityRate runs a sequence of product vectors through the tree and
// returns toggled register bits per cycle per register bit — the
// adder-tree analogue of Rtog.
func (t *AdderTree) ActivityRate(sequence [][]int64) float64 {
	if len(sequence) == 0 {
		return 0
	}
	totalRegs := 0
	for _, lvl := range t.nodes {
		totalRegs += len(lvl)
	}
	toggles := 0
	for _, products := range sequence {
		_, tg := t.Reduce(products)
		toggles += tg
	}
	return float64(toggles) / float64(len(sequence)*totalRegs*t.bits)
}
