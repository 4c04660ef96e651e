package model

import (
	"strings"
	"testing"

	"aim/internal/quant"
)

const seed = 2025

func TestZooConstructs(t *testing.T) {
	nets := All(seed)
	if len(nets) != 6 {
		t.Fatalf("zoo size = %d, want 6", len(nets))
	}
	names := map[string]bool{}
	for _, n := range nets {
		if names[n.Name] {
			t.Errorf("duplicate network name %q", n.Name)
		}
		names[n.Name] = true
		if len(n.Layers) == 0 {
			t.Errorf("%s has no layers", n.Name)
		}
		for _, l := range n.Layers {
			if l.Kind.InputDetermined() {
				if l.Weights != nil {
					t.Errorf("%s/%s: input-determined op should carry no weights", n.Name, l.Name)
				}
				continue
			}
			if l.Weights == nil || l.Weights.Len() == 0 {
				t.Errorf("%s/%s: missing weights", n.Name, l.Name)
			}
			if l.Rows <= 0 || l.Cols <= 0 {
				t.Errorf("%s/%s: bad shape %dx%d", n.Name, l.Name, l.Rows, l.Cols)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"resnet18", "mobilenetv2", "yolov5", "vit", "llama3", "gpt2"} {
		n, err := ByName(name, seed)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if n.Name != name {
			t.Errorf("got %s, want %s", n.Name, name)
		}
	}
	if _, err := ByName("alexnet", seed); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := ResNet18(seed)
	b := ResNet18(seed)
	for i, l := range a.Layers {
		for j, v := range l.Weights.Data {
			if b.Layers[i].Weights.Data[j] != v {
				t.Fatal("weights must be deterministic for a given seed")
			}
		}
	}
	c := ResNet18(seed + 1)
	if c.Layers[0].Weights.Data[0] == a.Layers[0].Weights.Data[0] {
		t.Error("different seeds should give different weights")
	}
}

func TestTransformersHaveInputDeterminedOps(t *testing.T) {
	for _, n := range All(seed) {
		hasQKT := false
		for _, l := range n.Layers {
			if l.Kind == QKT {
				hasQKT = true
			}
		}
		if n.Transformer && !hasQKT {
			t.Errorf("%s: transformer without QKT op", n.Name)
		}
		if !n.Transformer && hasQKT {
			t.Errorf("%s: conv net with QKT op", n.Name)
		}
	}
}

func TestResNet18LayerInventory(t *testing.T) {
	n := ResNet18(seed)
	// conv1 + 4 stages × (2 blocks × 2 convs) + 3 downsamples + fc = 21.
	if got := len(n.Layers); got != 21 {
		t.Errorf("ResNet18 layer count = %d, want 21", got)
	}
	if n.Layers[0].Name != "conv1" || n.Layers[0].Cols != 147 {
		t.Errorf("conv1 malformed: %+v", n.Layers[0])
	}
	last := n.Layers[len(n.Layers)-1]
	if last.Name != "fc" || last.Rows != 1000 || last.Cols != 512 {
		t.Errorf("fc malformed: %+v", last)
	}
	// A known mid layer from the paper's Fig. 5: layer3.0.conv1.
	found := false
	for _, l := range n.Layers {
		if l.Name == "layer3.0.conv1" {
			found = true
			if l.Rows != 256 || l.Cols != 128*9 {
				t.Errorf("layer3.0.conv1 shape %dx%d", l.Rows, l.Cols)
			}
		}
	}
	if !found {
		t.Error("layer3.0.conv1 missing")
	}
}

func TestViTBlockInventory(t *testing.T) {
	n := ViT(seed)
	// patch_embed + 12 blocks × 6 ops + head.
	if got := len(n.Layers); got != 2+12*6 {
		t.Errorf("ViT layer count = %d, want %d", got, 2+12*6)
	}
	fc1s := 0
	for _, l := range n.Layers {
		if strings.HasSuffix(l.Name, ".mlp.fc1") {
			fc1s++
			if l.Rows != 3072 || l.Cols != 768 {
				t.Errorf("fc1 shape %dx%d", l.Rows, l.Cols)
			}
		}
	}
	if fc1s != 12 {
		t.Errorf("fc1 count = %d, want 12", fc1s)
	}
}

func TestLlama3GQAShapes(t *testing.T) {
	n := Llama3(seed)
	for _, l := range n.Layers {
		if strings.HasSuffix(l.Name, ".attn.k") && (l.Rows != 512 || l.Cols != 2048) {
			t.Errorf("GQA k proj shape %dx%d, want 512x2048", l.Rows, l.Cols)
		}
	}
}

func TestBaselineHRAroundHalf(t *testing.T) {
	// Paper Table 3: baseline INT8 HR ≈ 0.49-0.53 across models.
	for _, n := range All(seed) {
		st := NetworkHR(n, BaselineConfig())
		if st.Average < 0.44 || st.Average > 0.56 {
			t.Errorf("%s: baseline HRaverage = %.3f, want ~0.5", n.Name, st.Average)
		}
	}
}

func TestLHRReducesHREveryModel(t *testing.T) {
	for _, n := range All(seed) {
		base := NetworkHR(n, BaselineConfig())
		lhr := NetworkHR(n, LHRConfig())
		relAvg := (base.Average - lhr.Average) / base.Average
		relMax := (base.Max - lhr.Max) / base.Max
		// Paper Table 2: 23-31% average, 24-31% max.
		if relAvg < 0.15 || relAvg > 0.42 {
			t.Errorf("%s: LHR HRaverage reduction = %.1f%%, want paper-shaped 15-42%%", n.Name, 100*relAvg)
		}
		if relMax <= 0 {
			t.Errorf("%s: LHR did not reduce HRmax", n.Name)
		}
	}
}

func TestWDSImprovesOverLHR(t *testing.T) {
	for _, n := range All(seed) {
		lhr := NetworkHR(n, LHRConfig())
		w8 := NetworkHR(n, WDSConfig(8))
		w16 := NetworkHR(n, WDSConfig(16))
		if w8.Average >= lhr.Average {
			t.Errorf("%s: WDS(8) did not improve HRaverage (%.3f -> %.3f)", n.Name, lhr.Average, w8.Average)
		}
		if w16.Average >= w8.Average {
			t.Errorf("%s: WDS(16) (%.3f) should beat WDS(8) (%.3f) per Table 2", n.Name, w16.Average, w8.Average)
		}
	}
}

func TestQualityBarelyMoves(t *testing.T) {
	// Paper Fig. 13: LHR+WDS costs well under 1 point of quality.
	for _, n := range All(seed) {
		base := n.Quality(NetworkHR(n, BaselineConfig()))
		opt := n.Quality(NetworkHR(n, WDSConfig(16)))
		var degraded float64
		if n.Profile.Acc.Metric == quant.Perplexity {
			degraded = opt - base
		} else {
			degraded = base - opt
		}
		if degraded > 1.0 {
			t.Errorf("%s: quality degradation %.2f too large", n.Name, degraded)
		}
	}
}

func TestStatsWeighting(t *testing.T) {
	n := ResNet18(seed)
	lqs := QuantizeNetwork(n, BaselineConfig())
	st := Stats(lqs)
	if st.Max < st.Average {
		t.Error("HRmax must be >= HRaverage")
	}
	if len(st.PerLayer) != len(lqs) {
		t.Errorf("per-layer count %d != %d", len(st.PerLayer), len(lqs))
	}
}

func TestWeightLayersExcludeAttentionProducts(t *testing.T) {
	n := GPT2(seed)
	for _, l := range n.WeightLayers() {
		if l.Kind.InputDetermined() {
			t.Errorf("WeightLayers returned input-determined op %s", l.Name)
		}
	}
	if len(n.WeightLayers()) != 12*4 {
		t.Errorf("GPT2 weight layer count = %d, want 48", len(n.WeightLayers()))
	}
}
