package quant

import (
	"math"
	"testing"
	"testing/quick"

	"aim/internal/fxp"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

func gaussianTensor(seed int64, n int, sigma float64) *tensor.Float {
	g := xrand.New(seed)
	t := tensor.NewFloat(n)
	for i := range t.Data {
		t.Data[i] = g.Normal(0, sigma)
	}
	return t
}

// laplaceTensor mimics real neural-network weight tensors: heavy-tailed
// Laplace body whose rare outliers set the per-tensor quantization
// scale, so most codes fall within a few tens of the origin. This is
// the regime in which the paper's WDS analysis (§5.4) operates.
func laplaceTensor(seed int64, n int, b float64) *tensor.Float {
	g := xrand.New(seed)
	t := tensor.NewFloat(n)
	for i := range t.Data {
		t.Data[i] = g.Laplace(0, b)
	}
	return t
}

func TestQuantizeRoundTrip(t *testing.T) {
	w := gaussianTensor(1, 4096, 0.05)
	q := Quantize(w, 8)
	d := Dequantize(q)
	for i := range w.Data {
		if math.Abs(w.Data[i]-d.Data[i]) > q.Scale/2+1e-12 {
			t.Fatalf("round-trip error at %d: %v vs %v (scale %v)", i, w.Data[i], d.Data[i], q.Scale)
		}
	}
}

func TestQuantizeCodesInRange(t *testing.T) {
	f := func(seed int64) bool {
		w := gaussianTensor(seed, 257, 0.3)
		q := Quantize(w, 8)
		for _, c := range q.Codes.Data {
			if c < -128 || c > 127 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	w := gaussianTensor(2, 1024, 0.1)
	q1 := Quantize(w, 8)
	q2 := QuantizeWithScale(Dequantize(q1), 8, q1.Scale)
	for i := range q1.Codes.Data {
		if q1.Codes.Data[i] != q2.Codes.Data[i] {
			t.Fatalf("quantization not idempotent at %d", i)
		}
	}
}

// TestScaleSubnormalMax: a tensor whose absolute maximum is so small
// that dividing it by the top code underflows still gets a positive
// scale, so Quantize neither panics nor divides by zero.
func TestScaleSubnormalMax(t *testing.T) {
	w := &tensor.Float{Shape: []int{3}, Data: []float64{5e-324, -5e-324, 0}}
	if s := Scale(w, 8); s != 1 {
		t.Fatalf("Scale = %v, want 1", s)
	}
	for i, c := range Quantize(w, 8).Codes.Data {
		if c != 0 {
			t.Fatalf("code %d = %d, want 0", i, c)
		}
	}
}

func TestBaselineHRNearHalf(t *testing.T) {
	// Symmetric Gaussian INT8 weights have HR close to 0.5: positive
	// codes are sparse in 1s, negative two's-complement codes are dense.
	w := laplaceTensor(3, 1<<16, 0.02)
	hr := Quantize(w, 8).HR()
	if hr < 0.40 || hr > 0.56 {
		t.Errorf("baseline HR = %v, want ~0.5", hr)
	}
}

func TestOptimizeLayerLHRReducesHR(t *testing.T) {
	w := laplaceTensor(4, 1<<15, 0.02)
	opt := DefaultLHROptions()
	res := OptimizeLayer(w, 8, &opt, 0)
	before, after := res.Base.HR(), res.HR
	if after >= before {
		t.Fatalf("LHR did not reduce HR: %v -> %v", before, after)
	}
	rel := (before - after) / before
	if rel < 0.15 || rel > 0.45 {
		t.Errorf("LHR relative reduction = %.3f, want in [0.15,0.45] (paper ~0.23-0.31)", rel)
	}
	if res.Drift <= 0 || res.Drift > float64(DefaultLHROptions().Window) {
		t.Errorf("drift = %v out of plausible range", res.Drift)
	}
}

func TestProximalTuneRespectsWindow(t *testing.T) {
	g := xrand.New(5)
	codes := make([]int32, 2000)
	for i := range codes {
		codes[i] = int32(g.Intn(255) - 127)
	}
	window := 4
	out := ProximalTune(codes, 8, window, 5)
	for i := range codes {
		d := int(out[i] - codes[i])
		if d < -window || d > window {
			t.Fatalf("code %d moved by %d, window %d", codes[i], d, window)
		}
	}
}

func TestProximalTuneNeverIncreasesCost(t *testing.T) {
	g := xrand.New(6)
	lam := 4.0
	for trial := 0; trial < 200; trial++ {
		c0 := int32(g.Intn(255) - 127)
		out := ProximalTune([]int32{c0}, 8, 6, lam)[0]
		cost0 := lam * float64(fxp.Hamming(c0, 8))
		d := float64(out - c0)
		cost1 := lam*float64(fxp.Hamming(out, 8)) + d*d
		if cost1 > cost0 {
			t.Fatalf("tuning increased cost for %d -> %d", c0, out)
		}
	}
}

func TestGradientTuneMatchesProximalInDistribution(t *testing.T) {
	// The gradient form (with jitter) and the proximal fixed point
	// should land at similar HR levels.
	w := laplaceTensor(7, 8192, 0.02)
	s := Scale(w, 8)
	opt := DefaultLHROptions()
	tuned := GradientTune(w, s, 8, opt, xrand.New(99))
	qGrad := QuantizeWithScale(tuned, 8, s)
	hrGrad, hrProx := qGrad.HR(), OptimizeLayer(w, 8, &opt, 0).HR
	if math.Abs(hrGrad-hrProx) > 0.08 {
		t.Errorf("gradient HR %.3f vs proximal HR %.3f differ too much", hrGrad, hrProx)
	}
	base := Quantize(w, 8).HR()
	if hrGrad >= base {
		t.Errorf("gradient LHR failed to reduce HR: %v -> %v", base, hrGrad)
	}
}

func TestNetworkLoss(t *testing.T) {
	a := Quantize(gaussianTensor(8, 512, 0.1), 8)
	loss := NetworkLoss([]*Quantized{a, a})
	want := 2 * a.HR() * a.HR()
	if math.Abs(loss-want) > 1e-12 {
		t.Errorf("NetworkLoss = %v, want %v", loss, want)
	}
}

func TestShiftWeightsClampsAtMax(t *testing.T) {
	q := &Quantized{Codes: &tensor.Int{Shape: []int{3}, Data: []int32{120, 0, -8}, Bits: 8}, Scale: 1}
	out, ov := ShiftWeights(q, 16)
	if out.Codes.Data[0] != 127 {
		t.Errorf("clamp failed: %d", out.Codes.Data[0])
	}
	if out.Codes.Data[1] != 16 || out.Codes.Data[2] != 8 {
		t.Errorf("shift wrong: %v", out.Codes.Data)
	}
	if ov != 1 {
		t.Errorf("overflow count = %d, want 1", ov)
	}
}

func TestShiftNegativeDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ShiftWeights(Quantize(gaussianTensor(9, 8, 0.1), 8), -8)
}

func TestIsPow2(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4, 8, 16} {
		if !IsPow2(d) {
			t.Errorf("IsPow2(%d) = false", d)
		}
	}
	for _, d := range []int{3, 5, 6, 7, 12, -8} {
		if IsPow2(d) {
			t.Errorf("IsPow2(%d) = true", d)
		}
	}
}

// Property: WDS with compensation is exact when no code clamps
// (DESIGN.md invariant 2).
func TestWDSExactnessProperty(t *testing.T) {
	g := xrand.New(10)
	f := func(seed int64) bool {
		m, k, n := 1+g.Intn(4), 1+g.Intn(6), 1+g.Intn(4)
		w := &Quantized{Codes: tensor.NewInt(8, m, k), Scale: 1}
		for i := range w.Codes.Data {
			w.Codes.Data[i] = int32(g.Intn(160) - 100) // stay below 127-16: no clamping
		}
		x := tensor.NewInt(8, k, n)
		for i := range x.Data {
			x.Data[i] = int32(g.Intn(255) - 127)
		}
		want := tensor.MatMulInt(w.Codes, x)
		got := MatmulWithWDS(w, x, 16)
		for i := range want {
			for j := range want[i] {
				if want[i][j] != got[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeLayerWDSOnLHRWeights(t *testing.T) {
	// After LHR, shifting by 8 or 16 should reduce HR; shifting by 4
	// should not help (paper Fig. 14 / §6.4).
	w := laplaceTensor(11, 1<<15, 0.02)
	opt := DefaultLHROptions()
	hr8 := OptimizeLayer(w, 8, &opt, 8).HR
	hr16 := OptimizeLayer(w, 8, &opt, 16).HR
	hr4 := OptimizeLayer(w, 8, &opt, 4).HR
	base := OptimizeLayer(w, 8, &opt, 0).HR
	if hr8 >= base {
		t.Errorf("WDS(8) did not reduce HR: %v -> %v", base, hr8)
	}
	if hr16 >= base {
		t.Errorf("WDS(16) did not reduce HR: %v -> %v", base, hr16)
	}
	if hr4 < hr8 {
		t.Errorf("WDS(4) (%v) should be worse than WDS(8) (%v)", hr4, hr8)
	}
}

func TestWDSOverflowRare(t *testing.T) {
	// Paper §5.4.1: overflow clamping affects <1% of weights.
	w := laplaceTensor(12, 1<<15, 0.02)
	opt := DefaultLHROptions()
	ovf := OptimizeLayer(w, 8, &opt, 16).OverflowFrac
	if ovf > 0.01 {
		t.Errorf("overflow fraction = %v, want <1%%", ovf)
	}
}

func TestPTQBaselineVsLHR(t *testing.T) {
	w := laplaceTensor(13, 1<<14, 0.02)
	for _, m := range []PTQMethod{OmniQuantLite, BRECQLite} {
		plain := PTQQuantize(w, DefaultPTQOptions(m, false))
		withLHR := PTQQuantize(w, DefaultPTQOptions(m, true))
		if withLHR.HR() >= plain.HR() {
			t.Errorf("%v: LHR did not reduce HR (%v -> %v)", m, plain.HR(), withLHR.HR())
		}
		rel := (plain.HR() - withLHR.HR()) / plain.HR()
		// Table 3: PTQ+LHR reduction is modest (~6-8% relative).
		if rel > 0.20 {
			t.Errorf("%v: PTQ LHR reduction %.3f implausibly large", m, rel)
		}
	}
}

func TestPTQRoundingErrorBounded(t *testing.T) {
	w := gaussianTensor(14, 4096, 0.1)
	q := PTQQuantize(w, DefaultPTQOptions(BRECQLite, true))
	for i, v := range w.Data {
		d := math.Abs(v - float64(q.Codes.Data[i])*q.Scale)
		if d > q.Scale*1.01 {
			t.Fatalf("PTQ rounding moved weight %d by %v (> 1 step %v)", i, d, q.Scale)
		}
	}
}

func TestPruneMagnitude(t *testing.T) {
	w := &tensor.Float{Shape: []int{6}, Data: []float64{0.5, -0.1, 0.2, -0.9, 0.05, 0.3}}
	p := PruneMagnitude(w, 0.5)
	if got := SparsityOf(p); got < 0.5 {
		t.Errorf("sparsity = %v, want >= 0.5", got)
	}
	// Largest magnitudes survive.
	if p.Data[3] != -0.9 || p.Data[0] != 0.5 {
		t.Errorf("pruning removed large weights: %v", p.Data)
	}
}

func TestPruneReducesHR(t *testing.T) {
	w := laplaceTensor(15, 1<<14, 0.02)
	base := Quantize(w, 8).HR()
	pruned := Quantize(PruneMagnitude(w, 0.5), 8).HR()
	if pruned >= base {
		t.Errorf("pruning did not reduce HR: %v -> %v", base, pruned)
	}
}

func TestGMPScheduleShape(t *testing.T) {
	s := GMPSchedule{Target: 0.5, Steps: 10}
	prev := -1.0
	for i := 0; i < 12; i++ {
		v := s.SparsityAt(i)
		if v < prev-1e-12 {
			t.Fatalf("schedule not monotone at %d", i)
		}
		prev = v
	}
	if s.SparsityAt(9) != 0.5 || s.SparsityAt(100) != 0.5 {
		t.Error("schedule should reach target")
	}
	if s.SparsityAt(-1) != 0 {
		t.Error("negative step should give 0")
	}
}

func TestRunGMPReachesTarget(t *testing.T) {
	w := gaussianTensor(16, 4096, 0.1)
	out := RunGMP(w, GMPSchedule{Target: 0.3, Steps: 5})
	if got := SparsityOf(out); math.Abs(got-0.3) > 0.02 {
		t.Errorf("final sparsity = %v, want ~0.3", got)
	}
}

func TestAccuracyModelDirections(t *testing.T) {
	acc := AccuracyModel{Metric: Accuracy, Base: 70, DriftSens: 0.5, DriftFree: 0.5, RegGain: 0, PruneSens: 10}
	if acc.AfterDrift(0.2) != 70 {
		t.Error("drift below free threshold should not cost accuracy")
	}
	if acc.AfterDrift(2) >= 70 {
		t.Error("large drift should cost accuracy")
	}
	if acc.AfterPrune(0.5, 0) >= 70 {
		t.Error("pruning should cost accuracy")
	}
	ppl := AccuracyModel{Metric: Perplexity, Base: 28, DriftSens: 0.5, DriftFree: 0.5}
	if ppl.AfterDrift(2) <= 28 {
		t.Error("perplexity should increase with drift")
	}
}

func TestAccuracyRegGain(t *testing.T) {
	m := AccuracyModel{Metric: Accuracy, Base: 80, DriftSens: 0.2, DriftFree: 1, RegGain: 0.3}
	if m.AfterDrift(0.5) <= 80 {
		t.Error("regularization gain should improve accuracy at low drift")
	}
}

func TestMeanAbsCodeDelta(t *testing.T) {
	a := &Quantized{Codes: &tensor.Int{Shape: []int{3}, Data: []int32{1, 2, 3}, Bits: 8}}
	b := &Quantized{Codes: &tensor.Int{Shape: []int{3}, Data: []int32{2, 0, 3}, Bits: 8}}
	if got := MeanAbsCodeDelta(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("delta = %v, want 1", got)
	}
}
