package compiler

import (
	"fmt"
	"testing"

	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/tensor"
)

// The references below are the compiler's quantization loop and
// model.QuantizeNetwork as they stood before both went through
// quant.OptimizeLayer, with the LHR pass and model.Stats they called.
// Compile and QuantizeNetwork must reproduce them exactly.

type lhrResultReference struct {
	Before *quant.Quantized
	After  *quant.Quantized
	Drift  float64
}

func applyLHRReference(w *tensor.Float, bits int, opt quant.LHROptions) lhrResultReference {
	base := quant.Quantize(w, bits)
	lam := opt.Lambda * 2 * base.HR()
	tuned := quant.ProximalTune(base.Codes.Data, bits, opt.Window, lam)
	after := &quant.Quantized{Codes: &tensor.Int{Shape: base.Codes.Shape, Data: tuned, Bits: bits}, Scale: base.Scale}
	return lhrResultReference{Before: base, After: after, Drift: quant.MeanAbsCodeDelta(base, after)}
}

type layerQuantReference struct {
	Layer        *model.Layer
	Q            *quant.Quantized
	Drift        float64
	OverflowFrac float64
}

func statsReference(lqs []layerQuantReference) model.HRStats {
	var st model.HRStats
	totalElems := 0.0
	weightedHR := 0.0
	weightedDrift := 0.0
	for _, lq := range lqs {
		hr := lq.Q.HR()
		st.PerLayer = append(st.PerLayer, hr)
		if hr > st.Max {
			st.Max = hr
		}
		e := float64(lq.Layer.Elems())
		totalElems += e
		weightedHR += hr * e
		weightedDrift += (lq.Drift + lq.OverflowFrac*4) * e
	}
	if totalElems > 0 {
		st.Average = weightedHR / totalElems
		st.MeanDrift = weightedDrift / totalElems
	}
	return st
}

// planReference is the fields of a LayerPlan the quantization loop set.
type planReference struct {
	Quant *quant.Quantized
	HR    float64
	Delta int
}

func compileQuantReference(net *model.Network, opt Options) ([]planReference, model.HRStats, float64) {
	if opt.Bits == 0 {
		opt.Bits = 8
	}
	var plans []planReference
	lhrOpt := net.LHROptions()
	var lqs []layerQuantReference
	for _, l := range net.Layers {
		plan := planReference{HR: 1.0}
		if !l.Kind.InputDetermined() {
			var base, q *quant.Quantized
			drift := 0.0
			if opt.UseLHR {
				res := applyLHRReference(l.Weights, opt.Bits, lhrOpt)
				base, q, drift = res.Before, res.After, res.Drift
			} else {
				base = quant.Quantize(l.Weights, opt.Bits)
				q = base
			}
			ovf := 0.0
			if d := deltaForReference(l.Name, opt); d > 0 {
				if !quant.IsPow2(d) {
					panic(fmt.Sprintf("compiler: δ=%d for %s is not a power of two", d, l.Name))
				}
				shifted, nOv := quant.ShiftWeights(q, d)
				q = shifted
				plan.Delta = d
				if n := len(base.Codes.Data); n > 0 {
					ovf = float64(nOv) / float64(n)
				}
			}
			plan.Quant = q
			plan.HR = q.HR()
			lqs = append(lqs, layerQuantReference{Layer: l, Q: q, Drift: drift, OverflowFrac: ovf})
		}
		plans = append(plans, plan)
	}
	st := statsReference(lqs)
	return plans, st, st.MeanDrift
}

func deltaForReference(name string, opt Options) int {
	if d, ok := opt.PerOpDelta[name]; ok {
		return d
	}
	return opt.WDSDelta
}

func quantizeNetworkReference(n *model.Network, cfg model.QuantConfig) []layerQuantReference {
	bits := cfg.Bits
	if bits == 0 {
		bits = 8
	}
	opt := n.LHROptions()
	var out []layerQuantReference
	for _, l := range n.WeightLayers() {
		base := quant.Quantize(l.Weights, bits)
		q := base
		drift := 0.0
		if cfg.UseLHR {
			res := applyLHRReference(l.Weights, bits, opt)
			q = res.After
			drift = res.Drift
		}
		ovf := 0.0
		if cfg.WDSDelta > 0 {
			shifted, nOv := quant.ShiftWeights(q, cfg.WDSDelta)
			q = shifted
			if n := len(base.Codes.Data); n > 0 {
				ovf = float64(nOv) / float64(n)
			}
		}
		out = append(out, layerQuantReference{Layer: l, Q: q, Drift: drift, OverflowFrac: ovf})
	}
	return out
}

func sameCodes(a, b *quant.Quantized) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Scale != b.Scale || a.Codes.Bits != b.Codes.Bits || len(a.Codes.Data) != len(b.Codes.Data) {
		return false
	}
	for i := range a.Codes.Data {
		if a.Codes.Data[i] != b.Codes.Data[i] {
			return false
		}
	}
	return true
}

func sameStats(a, b model.HRStats) bool {
	if a.Average != b.Average || a.Max != b.Max || a.MeanDrift != b.MeanDrift || len(a.PerLayer) != len(b.PerLayer) {
		return false
	}
	for i := range a.PerLayer {
		if a.PerLayer[i] != b.PerLayer[i] {
			return false
		}
	}
	return true
}

// oraclePoint is one quantization setting of the oracle matrix.
type oraclePoint struct {
	bits   int
	useLHR bool
	delta  int
	perOp  map[string]int
}

// TestQuantizationMatchesReference: Compile's plans and stats, and
// QuantizeNetwork's layers and stats, equal the references exactly on
// resnet18, mobilenetv2 and gpt2 at 4, 8 and 16 bits, with and without
// LHR, at δ 0, 8 and 16, plus one per-operator δ override.
func TestQuantizationMatchesReference(t *testing.T) {
	var points []oraclePoint
	for _, bits := range []int{4, 8, 16} {
		for _, useLHR := range []bool{false, true} {
			for _, delta := range []int{0, 8, 16} {
				points = append(points, oraclePoint{bits, useLHR, delta, nil})
			}
		}
	}
	points = append(points, oraclePoint{8, true, 8, map[string]int{
		"conv1": 16, "layer1.0.conv1": 0, // resnet18
		"features.0": 4, "features.1.dw": -1, // mobilenetv2
		"h.0.attn.qkv": 32, "h.3.mlp.fc2": 0, // gpt2
	}})
	for _, name := range []string{"resnet18", "mobilenetv2", "gpt2"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net, err := model.ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, net, points)
		})
	}
}

// checkAgainstReference runs every point of the oracle matrix on net.
func checkAgainstReference(t *testing.T, net *model.Network, points []oraclePoint) {
	name := net.Name
	for _, p := range points {
		cfg := model.QuantConfig{Bits: p.bits, UseLHR: p.useLHR, WDSDelta: p.delta, PerOpDelta: p.perOp}
		label := fmt.Sprintf("%s %+v", name, cfg)

		opt := BaselineOptions()
		opt.QuantConfig = cfg
		c := Compile(net, pim.DefaultConfig(), opt)
		plans, st, drift := compileQuantReference(net, opt)
		for i, want := range plans {
			got := c.Plans[i]
			if !sameCodes(got.Quant, want.Quant) || got.HR != want.HR || got.Delta != want.Delta {
				t.Fatalf("%s: plan %s: HR %v δ %d, reference HR %v δ %d (codes equal %v)",
					label, got.Layer.Name, got.HR, got.Delta, want.HR, want.Delta, sameCodes(got.Quant, want.Quant))
			}
		}
		if !sameStats(c.Stats, st) || c.Stats.MeanDrift != drift {
			t.Fatalf("%s: compile stats %+v drift %v, reference %+v drift %v", label, c.Stats, c.Stats.MeanDrift, st, drift)
		}

		if p.perOp != nil {
			continue // the old QuantizeNetwork had no per-operator δ
		}
		lqs := model.QuantizeNetwork(net, cfg)
		ref := quantizeNetworkReference(net, cfg)
		if len(lqs) != len(ref) {
			t.Fatalf("%s: %d layers, reference %d", label, len(lqs), len(ref))
		}
		for i, want := range ref {
			got := lqs[i]
			if got.Layer != want.Layer || !sameCodes(got.Q, want.Q) || got.HR != want.Q.HR() ||
				got.Drift != want.Drift || got.OverflowFrac != want.OverflowFrac || got.Delta != p.delta {
				t.Fatalf("%s: layer %s: HR %v drift %v overflow %v δ %d, reference HR %v drift %v overflow %v (codes equal %v)",
					label, want.Layer.Name, got.HR, got.Drift, got.OverflowFrac, got.Delta,
					want.Q.HR(), want.Drift, want.OverflowFrac, sameCodes(got.Q, want.Q))
			}
		}
		if got, want := model.Stats(lqs), statsReference(ref); !sameStats(got, want) {
			t.Fatalf("%s: stats %+v, reference %+v", label, got, want)
		}
	}
}
