// Package model provides the synthetic model zoo the experiments run
// on: the six networks of the paper's evaluation (ResNet18, MobileNetV2,
// YOLOv5, ViT, Llama3.2-1B, GPT2) with layer inventories copied from the
// real architectures and weights drawn from realistic per-layer
// distributions (heavy-tailed Laplace bodies with Gaussian outlier
// components whose rare extremes set the quantization scale).
//
// Real pretrained checkpoints are not available offline; DESIGN.md
// documents why distribution-matched synthetic weights preserve the
// HR/Rtog behaviour the paper's experiments measure.
package model

import (
	"fmt"

	"aim/internal/quant"
	"aim/internal/tensor"
	"aim/internal/xrand"
)

// OpKind classifies an operator the way the paper does when deciding
// whether its in-memory data can be pre-optimized (§5.5.1).
type OpKind int

const (
	// Conv is a standard convolution; weights are in-memory data.
	Conv OpKind = iota
	// DWConv is a depthwise convolution (MobileNet); in-memory weights.
	DWConv
	// Linear is a fully connected / projection layer; in-memory weights.
	Linear
	// QKVGen generates Q, K and V from fixed weights; in-memory weights.
	QKVGen
	// QKT is the attention Q·Kᵀ product: both operands are produced at
	// runtime, so HR cannot be pre-determined (input-determined).
	QKT
	// SV is the attention score·V product: input-determined.
	SV
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case Linear:
		return "linear"
	case QKVGen:
		return "qkvgen"
	case QKT:
		return "qkt"
	case SV:
		return "sv"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// InputDetermined reports whether both operands are produced at
// runtime. Such operators default to the 100% safe level in IR-Booster
// because LHR/WDS cannot touch them (§5.5.1).
func (k OpKind) InputDetermined() bool { return k == QKT || k == SV }

// maxSampledWeights caps the number of weights actually materialized
// per layer; HR statistics from this many Laplace/Gaussian samples are
// accurate to well under one percentage point, while full-size Llama
// layers would be needlessly slow.
const maxSampledWeights = 8192

// Layer is one operator of a network.
type Layer struct {
	Name string
	Kind OpKind
	// Rows and Cols describe the logical weight matrix mapped onto PIM
	// (output features × flattened input features). Input-determined
	// operators describe their runtime operand shapes instead.
	Rows, Cols int
	// Weights holds sampled synthetic weights for weight-stationary
	// operators (nil for input-determined ones). Only the offline
	// quantize pass reads them; a plan decoded from the plan store
	// carries neither them nor the codes quantized from them, so its
	// layers' Weights are nil.
	Weights *tensor.Float
	// SigmaMul is the per-layer width multiplier applied to the model's
	// base distribution; recorded for reproducibility.
	SigmaMul float64
}

// Elems returns the logical number of weights.
func (l *Layer) Elems() int { return l.Rows * l.Cols }

// Profile carries the per-model weight-distribution and tuning
// parameters (see DESIGN.md "Substitutions").
type Profile struct {
	// LaplaceB is the Laplace body scale of weight values.
	LaplaceB float64
	// OutlierFrac of weights come from a wider Gaussian whose extremes
	// set the per-tensor quantization scale.
	OutlierFrac float64
	// OutlierSigma is that Gaussian's standard deviation.
	OutlierSigma float64
	// Lambda is the LHR regularization strength calibrated for this
	// model (Table 2).
	Lambda float64
	// Acc is the surrogate quality model.
	Acc quant.AccuracyModel
}

// Network is a workload from the paper's evaluation.
type Network struct {
	Name        string
	Layers      []*Layer
	Profile     Profile
	Transformer bool
}

// WeightLayers returns the layers that carry in-memory weights.
func (n *Network) WeightLayers() []*Layer {
	out := make([]*Layer, 0, len(n.Layers))
	for _, l := range n.Layers {
		if !l.Kind.InputDetermined() {
			out = append(out, l)
		}
	}
	return out
}

// LHROptions returns the model-calibrated LHR configuration.
func (n *Network) LHROptions() quant.LHROptions {
	o := quant.DefaultLHROptions()
	o.Lambda = n.Profile.Lambda
	return o
}

// layerSpec is the static part of a layer before weight sampling.
type layerSpec struct {
	name       string
	kind       OpKind
	rows, cols int
	sigmaMul   float64
}

// build materializes a network: for each weight-stationary layer it
// samples min(Elems, maxSampledWeights) weights from the model profile
// scaled by the layer's sigma multiplier.
func build(name string, transformer bool, p Profile, specs []layerSpec, seed int64) *Network {
	net := &Network{Name: name, Profile: p, Transformer: transformer}
	for _, s := range specs {
		l := &Layer{Name: s.name, Kind: s.kind, Rows: s.rows, Cols: s.cols, SigmaMul: s.sigmaMul}
		if !s.kind.InputDetermined() {
			n := l.Elems()
			if n > maxSampledWeights {
				n = maxSampledWeights
			}
			rng := xrand.NewNamed(seed, name+"/"+s.name)
			w := tensor.NewFloat(n)
			for i := range w.Data {
				if rng.Bernoulli(p.OutlierFrac) {
					w.Data[i] = rng.Normal(0, p.OutlierSigma*s.sigmaMul)
				} else {
					w.Data[i] = rng.Laplace(0, p.LaplaceB*s.sigmaMul)
				}
			}
			l.Weights = w
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// All returns the full evaluation zoo in the paper's order.
func All(seed int64) []*Network {
	return []*Network{
		ResNet18(seed), MobileNetV2(seed), YOLOv5(seed),
		ViT(seed), Llama3(seed), GPT2(seed),
	}
}

// Names lists the zoo workloads in the paper's order — the valid
// arguments to ByName. Cheap: no network is generated.
func Names() []string {
	return []string{"resnet18", "mobilenetv2", "yolov5", "vit", "llama3", "gpt2"}
}

// ValidName reports whether name is a zoo workload without paying for
// its generation (admission-time validation in the serving runtime).
func ValidName(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// ByName returns the named network or an error listing valid names.
func ByName(name string, seed int64) (*Network, error) {
	switch name {
	case "resnet18":
		return ResNet18(seed), nil
	case "mobilenetv2":
		return MobileNetV2(seed), nil
	case "yolov5":
		return YOLOv5(seed), nil
	case "vit":
		return ViT(seed), nil
	case "llama3":
		return Llama3(seed), nil
	case "gpt2":
		return GPT2(seed), nil
	}
	return nil, fmt.Errorf("model: unknown network %q (want resnet18|mobilenetv2|yolov5|vit|llama3|gpt2)", name)
}
