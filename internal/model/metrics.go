package model

import (
	"aim/internal/quant"
)

// QuantConfig selects a point in the paper's quantization-pipeline
// space: the baseline QAT quantizer, optionally with the LHR
// regularizer, optionally followed by WDS with shift δ. It is the one
// declaration of these knobs; compiler.Options embeds it.
type QuantConfig struct {
	// Bits is the quantization width (0 selects 8).
	Bits   int
	UseLHR bool
	// WDSDelta is the default δ (§5.2.1: default 8; 0 disables WDS).
	WDSDelta int
	// PerOpDelta overrides δ for named operators ("users can explicitly
	// specify different δ values for each operator").
	PerOpDelta map[string]int
}

// BaselineConfig is the paper's [64] baseline: plain INT8 QAT.
func BaselineConfig() QuantConfig { return QuantConfig{Bits: 8} }

// LHRConfig is baseline + LHR.
func LHRConfig() QuantConfig { return QuantConfig{Bits: 8, UseLHR: true} }

// WDSConfig is baseline + LHR + WDS(δ).
func WDSConfig(delta int) QuantConfig { return QuantConfig{Bits: 8, UseLHR: true, WDSDelta: delta} }

// deltaFor returns the δ the named operator is shifted by: its
// PerOpDelta override, else WDSDelta, with anything below 1 meaning no
// shift (0).
func (c QuantConfig) deltaFor(name string) int {
	d, ok := c.PerOpDelta[name]
	if !ok {
		d = c.WDSDelta
	}
	return max(d, 0)
}

// LayerQuant is one weight-stationary layer after quantization.
type LayerQuant struct {
	Layer *Layer
	// Q holds the deployed codes.
	Q *quant.Quantized
	// HR is the deployed codes' Hamming rate.
	HR float64
	// Delta is the WDS δ applied (0 if none).
	Delta int
	// Drift is the mean absolute code movement relative to the baseline
	// quantization (accuracy surrogate input).
	Drift float64
	// OverflowFrac is the fraction of codes clamped by WDS.
	OverflowFrac float64
}

// QuantizeNetwork applies the configured pipeline to every
// weight-stationary layer of the network, in layer order, through
// quant.OptimizeLayer.
func QuantizeNetwork(n *Network, cfg QuantConfig) []LayerQuant {
	bits := cfg.Bits
	if bits == 0 {
		bits = 8
	}
	var lhr *quant.LHROptions
	if cfg.UseLHR {
		opt := n.LHROptions()
		lhr = &opt
	}
	var out []LayerQuant
	for _, l := range n.WeightLayers() {
		d := cfg.deltaFor(l.Name)
		r := quant.OptimizeLayer(l.Weights, bits, lhr, d)
		out = append(out, LayerQuant{Layer: l, Q: r.Deployed, HR: r.HR, Delta: d, Drift: r.Drift, OverflowFrac: r.OverflowFrac})
	}
	return out
}

// HRStats summarizes a quantized network.
type HRStats struct {
	// Average is the element-weighted mean HR over all layers — the
	// paper's HRaverage.
	Average float64
	// Max is the highest per-layer HR — the paper's HRmax.
	Max float64
	// PerLayer holds each layer's HR in layer order.
	PerLayer []float64
	// MeanDrift is the element-weighted mean code drift versus the
	// baseline quantization (WDS's compensated shift contributes no
	// numeric drift; only its rare overflow clamping does).
	MeanDrift float64
}

// Stats computes HR statistics over quantized layers.
func Stats(lqs []LayerQuant) HRStats {
	var st HRStats
	totalElems := 0.0
	weightedHR := 0.0
	weightedDrift := 0.0
	for _, lq := range lqs {
		hr := lq.HR
		st.PerLayer = append(st.PerLayer, hr)
		if hr > st.Max {
			st.Max = hr
		}
		e := float64(lq.Layer.Elems())
		totalElems += e
		weightedHR += hr * e
		// Overflowed codes moved by up to δ uncompensated; fold them
		// into drift at a conservative half-δ magnitude.
		weightedDrift += (lq.Drift + lq.OverflowFrac*4) * e
	}
	if totalElems > 0 {
		st.Average = weightedHR / totalElems
		st.MeanDrift = weightedDrift / totalElems
	}
	return st
}

// NetworkHR is a convenience: quantize under cfg and summarize.
func NetworkHR(n *Network, cfg QuantConfig) HRStats {
	return Stats(QuantizeNetwork(n, cfg))
}

// Quality returns the surrogate task quality of the network under the
// given stats (accuracy in % or perplexity depending on the model).
func (n *Network) Quality(st HRStats) float64 {
	return n.Profile.Acc.AfterDrift(st.MeanDrift)
}
