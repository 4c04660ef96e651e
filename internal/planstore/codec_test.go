package planstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/mapping"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/tensor"
)

// handPlan builds a one-layer plan whose layer holds n weights,
// quantized to 8-bit codes. Only the weight count (and with it the
// layer's Cols) varies with n: the HRs, waves and mappings are the
// same for every n.
func handPlan(n int) *core.Plan {
	weights := make([]float64, n)
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(i%255 - 127)
		weights[i] = float64(codes[i]) / 2
	}
	net := &model.Network{Name: "hand", Layers: []*model.Layer{{
		Name: "fc", Kind: model.Conv, Rows: 1, Cols: n, SigmaMul: 1,
		Weights: &tensor.Float{Shape: []int{1, n}, Data: weights},
	}}}
	stage := func() *compiler.Compiled {
		lp := &compiler.LayerPlan{
			Layer: net.Layers[0],
			Quant: &quant.Quantized{Codes: &tensor.Int{Shape: []int{1, n}, Data: codes, Bits: 8}, Scale: 0.5},
			HR:    0.25, Segments: 1, WaveRounds: 1,
		}
		return &compiler.Compiled{
			Net:     net,
			Options: compiler.Options{QuantConfig: model.QuantConfig{Bits: 8, WDSDelta: 16}},
			Plans:   []*compiler.LayerPlan{lp},
			Waves: []*compiler.Wave{{
				Plans:  []*compiler.LayerPlan{lp},
				Tasks:  []mapping.Task{{Op: "fc", HR: 0.25}, {Op: "fc", OpID: 0, HR: 0.25}},
				Map:    &mapping.Mapping{Assign: []int{0, 1}, Cfg: pim.DefaultConfig()},
				Rounds: 1,
			}},
			Stats: model.HRStats{Average: 0.25, Max: 0.25, PerLayer: []float64{0.25}},
		}
	}
	return &core.Plan{Net: net, Baseline: stage(), AIM: stage()}
}

// reframe rebuilds an encoded file around an edited copy of its
// payload, with a matching length and hash, so the edit reaches the
// payload decoder instead of stopping at the integrity check.
func reframe(t testing.TB, data []byte, edit func(payload []byte) []byte) []byte {
	t.Helper()
	h, err := ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	start := len(data) - sha256.Size - int(h.PayloadLen)
	payload := edit(append([]byte(nil), data[start:len(data)-sha256.Size]...))
	out := append([]byte(nil), data[:start-8]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// u64s is the little-endian encoding of vs, one u64 each.
func u64s(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// find returns the offset of run's first occurrence in payload.
func find(t testing.TB, payload, run []byte, what string) int {
	t.Helper()
	i := bytes.Index(payload, run)
	if i < 0 {
		t.Fatalf("%s not found in payload", what)
	}
	return i
}

// layerCount returns the offset of the network's layer count in a
// hand-built payload (the count and the one layer's name are one
// unique byte run).
func layerCount(t testing.TB, payload []byte) int {
	t.Helper()
	return find(t, payload, append(u64s(1, uint64(len("fc"))), "fc"...), "layer count")
}

// planCount returns the offset of the baseline stage's plan count in a
// hand-built payload: the count and the one layer plan (layer 0, HR
// 0.25, δ 0, one segment, one wave round) are one unique byte run.
func planCount(t testing.TB, payload []byte) int {
	t.Helper()
	return find(t, payload, u64s(1, 0, math.Float64bits(0.25), 0, 1, 1), "plan count")
}

// waveCount returns the offset of the baseline stage's wave count in a
// hand-built payload: the count, the wave's plan count, its plan index
// and its task count are one unique byte run.
func waveCount(t testing.TB, payload []byte) int {
	t.Helper()
	return find(t, payload, u64s(1, 1, 0, 2), "wave count")
}

// corruptCodecFiles returns hand-built files that are well framed and
// hash-correct, yet break one payload rule each: a count one too high
// in the network, plan, wave and task sections, an index out of range,
// a payload cut inside the plans or the waves, and a byte after the
// AIM artifact.
func corruptCodecFiles(t testing.TB) []namedFile {
	t.Helper()
	data, err := Encode(testKey("resnet18", 1), handPlan(5))
	if err != nil {
		t.Fatal(err)
	}
	// set returns an edit that writes v over the word-th u64 after
	// the offset at finds.
	set := func(at func(testing.TB, []byte) int, word int, v uint64) func([]byte) []byte {
		return func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[at(t, p)+8*word:], v)
			return p
		}
	}
	// cut returns an edit that ends the payload n bytes past the
	// offset at finds.
	cut := func(at func(testing.TB, []byte) int, n int) func([]byte) []byte {
		return func(p []byte) []byte { return p[:at(t, p)+n] }
	}
	return []namedFile{
		{"layer count +1", reframe(t, data, set(layerCount, 0, 2))},
		{"plan count +1", reframe(t, data, set(planCount, 0, 2))},
		{"plan layer index out of range", reframe(t, data, set(planCount, 1, 1))},
		{"wave count +1", reframe(t, data, set(waveCount, 0, 2))},
		{"wave plan index out of range", reframe(t, data, set(waveCount, 2, 1))},
		{"task count +1", reframe(t, data, set(waveCount, 3, 3))},
		{"truncated plan block", reframe(t, data, cut(planCount, 8+20))},
		// Past the counts, the plan index, two 27-byte tasks and the
		// 24-byte assignment, into the third word of the mapping's
		// config.
		{"truncated wave block", reframe(t, data, cut(waveCount, 8*4+2*27+24+20))},
		{"trailing payload byte", reframe(t, data, func(p []byte) []byte {
			return append(p, 0)
		})},
	}
}

// namedFile is one hand-built plan file and what it tests.
type namedFile struct {
	name string
	data []byte
}

// TestPlanBytesIndependentOfWeights: a plan file holds no weights and
// no codes, so two plans that differ only in their layer's weight
// count encode to files of one length, and each round-trips to its
// plan without them.
func TestPlanBytesIndependentOfWeights(t *testing.T) {
	k := testKey("resnet18", 1)
	var sizes []int
	for _, n := range []int{5, 5000} {
		plan := handPlan(n)
		data, err := Encode(k, plan)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(k, data)
		if err != nil {
			t.Fatalf("%d weights: %v", n, err)
		}
		if !reflect.DeepEqual(decoded, withoutWeightsAndCodes(plan)) {
			t.Fatalf("%d weights: decoded plan differs from the original minus its weights and codes", n)
		}
		checkDecodedPlan(t, decoded, plan)
		again, err := Encode(k, decoded)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%d weights: re-encoding differs (err %v)", n, err)
		}
		sizes = append(sizes, len(data))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("plan files of 5 and 5000 weights are %d and %d bytes, want one length", sizes[0], sizes[1])
	}
}

// TestDecodeRejectsNonCanonical: every payload-rule break in
// corruptCodecFiles is ErrCorrupt, never a panic or a decoded plan.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	k := testKey("resnet18", 1)
	for _, f := range corruptCodecFiles(t) {
		if _, err := Decode(k, f.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", f.name, err)
		}
	}
}

// TestEncodeAllocatesOneBuffer: Encode builds the file in one buffer
// sized by its size pass, not by growing and copying the payload.
func TestEncodeAllocatesOneBuffer(t *testing.T) {
	k := testKey("resnet18", 1)
	plan := compileTestPlan(t, "resnet18", 1)
	data, err := Encode(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Encode(k, plan); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEncode := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.25 * float64(len(data)); perEncode > limit {
		t.Fatalf("Encode allocates %.0f bytes for a %d-byte file (limit %.0f)", perEncode, len(data), limit)
	}
}
