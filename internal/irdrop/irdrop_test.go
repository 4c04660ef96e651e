package irdrop

import (
	"math"
	"testing"

	"aim/internal/pdn"
	"aim/internal/xrand"
)

func TestDPIMCalibration(t *testing.T) {
	m := DPIMModel()
	if got := m.SignoffWorstMV(); got != 140 {
		t.Errorf("sign-off worst = %v mV, want 140 (paper §6.6)", got)
	}
	// AIM's achieved range: 58.1–43.2 mV ↔ 58.5–69.2% mitigation.
	// Those correspond to effective Rtog around 0.37 and 0.25.
	if got := m.Estimate(0.37); math.Abs(got-58.1) > 3 {
		t.Errorf("Estimate(0.37) = %v mV, want ~58.1", got)
	}
	if got := m.Estimate(0.255); math.Abs(got-43.2) > 3 {
		t.Errorf("Estimate(0.255) = %v mV, want ~43.2", got)
	}
	if mit := m.Mitigation(0.255); mit < 0.65 || mit > 0.72 {
		t.Errorf("mitigation = %v, want ~0.692", mit)
	}
}

func TestAPIMMitigationNearHalf(t *testing.T) {
	m := APIMModel()
	// §7: AIM achieves ~50% mitigation on APIM at the same optimized
	// activity levels.
	mit := m.Mitigation(0.28)
	if mit < 0.42 || mit > 0.58 {
		t.Errorf("APIM mitigation = %v, want ~0.50", mit)
	}
	if m.NoiseMV >= DPIMModel().NoiseMV {
		t.Error("APIM noise should be below DPIM (r=0.998 vs 0.977)")
	}
}

func TestEstimateMonotone(t *testing.T) {
	m := DPIMModel()
	prev := -1.0
	for r := 0.0; r <= 1.0; r += 0.05 {
		v := m.Estimate(r)
		if v <= prev {
			t.Fatalf("estimate not monotone at %v", r)
		}
		prev = v
	}
}

func TestEstimatePanicsOutsideRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DPIMModel().Estimate(1.2)
}

func TestEstimateNoisyNonNegativeAndCentered(t *testing.T) {
	m := DPIMModel()
	rng := xrand.New(1)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := m.EstimateNoisy(0.4, rng)
		if v < 0 {
			t.Fatal("negative drop")
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-m.Estimate(0.4)) > 0.5 {
		t.Errorf("noisy mean %v far from %v", mean, m.Estimate(0.4))
	}
}

// The linear Eq. 2 model must agree with the PDN mesh solver it was
// calibrated against, across the activity range (within a few mV).
func TestModelMatchesPDN(t *testing.T) {
	m := DPIMModel()
	fp := pdn.DefaultFloorplan()
	act := pdn.DefaultActivity()
	for _, r := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		rt := make([]float64, 16)
		for i := range rt {
			rt[i] = r
		}
		_, worst := fp.SolveActivity(act, rt)
		lin := m.Estimate(r)
		if math.Abs(worst*1000-lin) > 14 {
			t.Errorf("Rtog=%v: PDN %v mV vs linear %v mV", r, worst*1000, lin)
		}
	}
}

func TestMonitorThreshold(t *testing.T) {
	mon := NewMonitor(750, 80)
	if mon.Sample(60) {
		t.Error("drop below tolerance should not fail")
	}
	if !mon.Sample(95) {
		t.Error("drop above tolerance must raise IRFailure")
	}
	if !mon.Failure() {
		t.Error("failure should latch")
	}
	mon.SetToleratedDrop(120)
	if mon.Sample(95) {
		t.Error("after re-arming at 120 mV, 95 mV should pass")
	}
}

func TestMonitorVCOBehaviour(t *testing.T) {
	mon := NewMonitor(750, 80)
	fNom := mon.OscFreqMHz(750)
	fDroop := mon.OscFreqMHz(650)
	if fDroop >= fNom {
		t.Error("VCO frequency must fall with supply voltage")
	}
	if mon.OscFreqMHz(-1e6) != 0 {
		t.Error("VCO frequency must clamp at zero")
	}
}

func TestMonitorOverheadWithinPaperBounds(t *testing.T) {
	area, power := MonitorOverhead(16)
	if area <= 0 || area > 0.001 {
		t.Errorf("monitor area fraction = %v, want (0, 0.1%%]", area)
	}
	if power <= 0 || power > 0.005 {
		t.Errorf("monitor power fraction = %v, want (0, 0.5%%]", power)
	}
}
