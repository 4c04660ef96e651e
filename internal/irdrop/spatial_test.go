package irdrop

import (
	"math"
	"testing"

	"aim/internal/pdn"
	"aim/internal/xrand"
)

// defaultSpatial builds a 16-group session on the calibrated die.
func defaultSpatial() *Spatial { return spatialAt(1) }

// spatialAt builds a session placing one group on every tile of the
// scale-f die: f=1 is the 16-tile die the response table answers,
// f=4 the 256-tile die that still solves the mesh per window.
func spatialAt(f int) *Spatial {
	fp := pdn.FloorplanAt(f)
	idx := make([]int, len(fp.GroupTiles))
	for i := range idx {
		idx[i] = i
	}
	return NewSpatial(fp, idx, pdn.DefaultActivity())
}

// TestSpatialWithinCalibrationBand pins SpatialCalibrationBandMV: on
// the default die, under Eq. 2's calibration condition (groups driven
// at similar activity — the regime the runtime simulator produces),
// every group's spatially-resolved drop stays within the band of the
// analytic estimate, across the activity range and with idle groups
// mixed in.
func TestSpatialWithinCalibrationBand(t *testing.T) {
	sp := defaultSpatial()
	m := DPIMModel()
	// A second session runs the same sequence with the calibrated skip
	// gate armed: held windows trade at most DefaultSpatialSkipMV of
	// per-group accuracy, an order of magnitude inside the band — so the
	// skip-armed session must satisfy the exact same pin.
	spSkip := defaultSpatial()
	spSkip.SkipThreshold = DefaultSpatialSkipMV / m.DynCoeffMV
	rng := xrand.NewNamed(1, "spatial/band")
	act := make([]float64, 16)
	drop := make([]float64, 16)
	dropSkip := make([]float64, 16)
	check := func(label string) {
		t.Helper()
		sp.EstimateGroups(act, drop)
		spSkip.EstimateGroups(act, dropSkip)
		for g, a := range act {
			if a < 0 {
				continue
			}
			if d := math.Abs(drop[g] - m.Estimate(a)); d > SpatialCalibrationBandMV {
				t.Errorf("%s: group %d act %.3f: spatial %.1f mV vs analytic %.1f mV (band %v)",
					label, g, a, drop[g], m.Estimate(a), SpatialCalibrationBandMV)
			}
			if d := math.Abs(dropSkip[g] - m.Estimate(a)); d > SpatialCalibrationBandMV {
				t.Errorf("%s: group %d act %.3f: skip-armed %.1f mV vs analytic %.1f mV (band %v)",
					label, g, a, dropSkip[g], m.Estimate(a), SpatialCalibrationBandMV)
			}
		}
	}
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		for g := range act {
			act[g] = r
		}
		check("uniform")
		// Mild per-group variation (the fig16 activity draw shape:
		// a few percent of spread around the common level).
		for g := range act {
			act[g] = r * (0.95 + 0.05*rng.Float64())
		}
		check("varied")
		// Idle groups mixed in, at the booster's operating activities
		// (≤ 0.5 — at sign-off-level activity an idle quarter of the
		// die is strongly non-uniform and legitimately outside the
		// band: see SpatialCalibrationBandMV).
		if r <= 0.5 {
			for g := range act {
				act[g] = r * (0.9 + 0.1*rng.Float64())
				if g%5 == 4 {
					act[g] = -1
				}
			}
			check("idle-mixed")
		}
	}
}

// TestSpatialIdleGroups: idle groups report zero drop (the analytic
// default's accounting) while still drawing tile leakage.
func TestSpatialIdleGroups(t *testing.T) {
	sp := defaultSpatial()
	act := make([]float64, 16)
	drop := make([]float64, 16)
	for g := range act {
		act[g] = -1
	}
	act[5] = 0.8
	sp.EstimateGroups(act, drop)
	for g, d := range drop {
		if g == 5 {
			if d <= 0 {
				t.Fatalf("active group drop = %v, want > 0", d)
			}
			continue
		}
		if d != 0 {
			t.Errorf("idle group %d drop = %v, want 0", g, d)
		}
	}
}

// TestSpatialCoupling: the whole point of the tier — a group's drop
// must depend on its neighbours' activity, which the analytic model
// cannot express.
func TestSpatialCoupling(t *testing.T) {
	sp := defaultSpatial()
	act := make([]float64, 16)
	drop := make([]float64, 16)
	// Group 5 alone at 0.5.
	act[5] = 0.5
	sp.EstimateGroups(act, drop)
	alone := drop[5]
	// Group 5 at 0.5 with every neighbour flat out.
	for g := range act {
		act[g] = 1
	}
	act[5] = 0.5
	sp.Reset()
	sp.EstimateGroups(act, drop)
	crowded := drop[5]
	if crowded <= alone+5 {
		t.Errorf("neighbour coupling missing: drop alone %.1f mV, crowded %.1f mV", alone, crowded)
	}
}

// TestSpatialResetDeterminism: after Reset, a session replays an
// identical solve sequence bit for bit — the property that makes
// per-shard sessions worker-count invariant.
func TestSpatialResetDeterminism(t *testing.T) {
	sp := defaultSpatial()
	rng := xrand.NewNamed(3, "spatial/replay")
	seq := make([][]float64, 5)
	for i := range seq {
		seq[i] = make([]float64, 16)
		for g := range seq[i] {
			seq[i][g] = rng.Float64()
		}
	}
	run := func() [][]float64 {
		sp.Reset()
		out := make([][]float64, len(seq))
		for i, act := range seq {
			out[i] = make([]float64, 16)
			sp.EstimateGroups(act, out[i])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		for g := range a[i] {
			if a[i][g] != b[i][g] {
				t.Fatalf("solve %d group %d: %v != %v after Reset", i, g, a[i][g], b[i][g])
			}
		}
	}
}

// TestSpatialPanicsOnBadPlacement: misplaced groups and mismatched
// activity vectors must fail loudly, not read the wrong tiles.
func TestSpatialPanicsOnBadPlacement(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	fp := pdn.FloorplanAt(1)
	expectPanic("tile out of range", func() {
		NewSpatial(fp, []int{0, 99}, pdn.DefaultActivity())
	})
	expectPanic("activity length mismatch", func() {
		sp := defaultSpatial()
		sp.EstimateGroups(make([]float64, 3), make([]float64, 3))
	})
}

// TestModelEstimateGroups: the analytic DropEstimator is exactly the
// historical per-group Estimate, with idle groups zeroed.
func TestModelEstimateGroups(t *testing.T) {
	m := DPIMModel()
	act := []float64{0, 0.3, -1, 1}
	drop := make([]float64, 4)
	m.EstimateGroups(act, drop)
	want := []float64{m.Estimate(0), m.Estimate(0.3), 0, m.Estimate(1)}
	for i := range want {
		if drop[i] != want[i] {
			t.Errorf("drop[%d] = %v, want %v", i, drop[i], want[i])
		}
	}
}
