package main

import (
	"math"
	"sort"
	"time"

	"aim/internal/irdrop"
	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// Everything the server sees is generated here from the workload seed,
// through named xrand streams: the same seed gives the same requests
// and send times, and no draw depends on how the run goes.

// openMix is the http-analytic-open subset of the vision mix: three
// convolutional networks in both modes. vit is left out because its
// one-second compile would dominate set-up and its 50 ms execution
// would make the mix bimodal.
var openMix = []serve.Request{
	{Network: "resnet18", Mode: vf.Sprint},
	{Network: "resnet18", Mode: vf.LowPower},
	{Network: "mobilenetv2", Mode: vf.Sprint},
	{Network: "mobilenetv2", Mode: vf.LowPower},
	{Network: "yolov5", Mode: vf.Sprint},
	{Network: "yolov5", Mode: vf.LowPower},
}

// spatialMix is the spatial-closed configuration set: the cheapest
// vision network in both modes, each at the reference solve cadence
// and at the incremental one (calibrated skip gate, adaptive window).
// spatialSlots weights them: two incremental requests to every
// reference one. The reference cadence costs about three times as
// much, so with an even split the p50 would sit exactly between the two
// modes of the latency distribution and jump from one to the other
// with the sample; at 2:1 the p50 lies inside the incremental mode and
// the p80 inside the reference one.
var spatialSlots = []int{0, 1, 2, 3, 2, 3}

var spatialMix = []serve.Request{
	{Network: "mobilenetv2", Mode: vf.Sprint, Fidelity: sim.SpatialPDN},
	{Network: "mobilenetv2", Mode: vf.LowPower, Fidelity: sim.SpatialPDN},
	{Network: "mobilenetv2", Mode: vf.Sprint, Fidelity: sim.SpatialPDN, SpatialSkipMV: irdrop.DefaultSpatialSkipMV, SpatialAdaptive: true},
	{Network: "mobilenetv2", Mode: vf.LowPower, Fidelity: sim.SpatialPDN, SpatialSkipMV: irdrop.DefaultSpatialSkipMV, SpatialAdaptive: true},
}

// blockShuffle returns n picks among k choices in which every
// consecutive block of k holds each choice once, in an order drawn
// from rng. Any prefix of the sequence is therefore within one block
// of an even split, which keeps the mix, and so the figures, the same
// from seed to seed while the order differs.
func blockShuffle(rng *xrand.RNG, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// openSchedule draws the open loop's traffic: n requests as indices
// into openMix, and their send offsets from the pass start. Arrivals
// are a Poisson process at rate per second conditioned on its count per
// one-second slot: each slot receives exactly rate arrivals, scattered
// uniformly within it. Below a second the traffic is as bursty as
// Poisson; above it the offered load does not drift with the seed, which
// would otherwise move the p99 from seed to seed more than any change
// worth measuring.
func openSchedule(seed int64, rate float64, n int) (picks []int, offsets []time.Duration) {
	picks = blockShuffle(xrand.NewNamed(seed, "e2ebench/open/mix"), n, len(openMix))
	at := xrand.NewNamed(seed, "e2ebench/open/arrivals")
	perSlot := max(int(math.Round(rate)), 1)
	slot := time.Duration(float64(perSlot) / rate * float64(time.Second))
	offsets = make([]time.Duration, 0, n+perSlot)
	for s := 0; len(offsets) < n; s++ {
		within := make([]float64, perSlot)
		for i := range within {
			within[i] = at.Float64()
		}
		sort.Float64s(within)
		for _, u := range within {
			offsets = append(offsets, time.Duration(s)*slot+time.Duration(u*float64(slot)))
		}
	}
	return picks, offsets[:n]
}

// closedSequence is the order closed-loop clients take requests in: n
// indices into a mix of k configurations.
func closedSequence(seed int64, stream string, n, k int) []int {
	return blockShuffle(xrand.NewNamed(seed, "e2ebench/"+stream), n, k)
}

// Plan keys of compile-restart. Compile time, which its set-up pays,
// depends mostly on the network, the width and the plan seed (one
// resnet18 plan compiles in 90 ms under one seed and 190 ms under
// another), and a plan's size, which every restart reads and decodes,
// on the network. So those three follow a fixed design, two mobilenetv2
// keys for every resnet18 one and each width equally often, and every
// seed does the same work; the workload seed draws the rest: mode, δ
// and the order. Width 4 is left out: it compiles two to three times
// slower than 5 to 8.
var (
	keyNets   = []string{"mobilenetv2", "mobilenetv2", "resnet18"}
	keyBits   = []int{5, 6, 7, 8}
	keyModes  = []vf.Mode{vf.Sprint, vf.LowPower}
	keyDeltas = []int{-1, 4, 8, 16, 32} // -1 switches WDS off
)

// compileKeyCount is how many distinct plans a pass serves: the design
// above, twice over.
const compileKeyCount = 24

// compileKeys returns compile-restart's distinct plan keys; key i has
// plan seed 1+i.
func compileKeys(seed int64) []serve.Request {
	rng := xrand.NewNamed(seed, "e2ebench/keys")
	cells := len(keyNets) * len(keyBits)
	modes := blockShuffle(rng, compileKeyCount, len(keyModes))
	deltas := blockShuffle(rng, compileKeyCount, len(keyDeltas))
	keys := make([]serve.Request, compileKeyCount)
	for i := range keys {
		cell := i % cells
		keys[i] = serve.Request{
			Network: keyNets[cell/len(keyBits)],
			Bits:    keyBits[cell%len(keyBits)],
			Mode:    keyModes[modes[i]],
			Delta:   keyDeltas[deltas[i]],
			Seed:    1 + int64(i),
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}
