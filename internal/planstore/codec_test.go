package planstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
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

// handPlan builds a one-layer plan whose codes are exactly codes. Every
// zoo plan's codes fit one byte, so the wider code widths are only
// reachable through a plan built by hand.
func handPlan(codes []int32) *core.Plan {
	weights := make([]float64, len(codes))
	for i, c := range codes {
		weights[i] = float64(c) / 2
	}
	net := &model.Network{Name: "hand", Layers: []*model.Layer{{
		Name: "fc", Kind: model.Conv, Rows: 1, Cols: len(codes), SigmaMul: 1,
		Weights: &tensor.Float{Shape: []int{1, len(codes)}, Data: weights},
	}}}
	stage := func() *compiler.Compiled {
		lp := &compiler.LayerPlan{
			Layer: net.Layers[0],
			Quant: &quant.Quantized{Codes: &tensor.Int{Shape: []int{1, len(codes)}, Data: codes, Bits: 8}, Scale: 0.5},
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

// handCodes are code sets with each canonical width.
var handCodes = []struct {
	width int
	codes []int32
}{
	{1, []int32{1, -2, 3, 127, -128}},
	{2, []int32{1, -2, 3, 128, -32768}},
	{4, []int32{1, -2, 3, 32768, -2147483648}},
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

// codeBlock returns the offset of the first code tensor's width byte
// for codes written at width 1 (the width byte, the count and the
// codes are one unique byte run in a hand-built payload).
func codeBlock(t testing.TB, payload []byte, codes []int32) int {
	t.Helper()
	run := []byte{1}
	run = binary.LittleEndian.AppendUint64(run, uint64(len(codes)))
	for _, c := range codes {
		run = append(run, byte(c))
	}
	i := bytes.Index(payload, run)
	if i < 0 {
		t.Fatal("code block not found in payload")
	}
	return i
}

// layerCount returns the offset of the network's layer count in a
// hand-built payload (the count and the one layer's name are one
// unique byte run).
func layerCount(t testing.TB, payload []byte) int {
	t.Helper()
	run := binary.LittleEndian.AppendUint64(nil, 1)
	run = binary.LittleEndian.AppendUint64(run, uint64(len("fc")))
	run = append(run, "fc"...)
	i := bytes.Index(payload, run)
	if i < 0 {
		t.Fatal("layer count not found in payload")
	}
	return i
}

// corruptCodecFiles returns hand-built files that are well framed and
// hash-correct, yet break one payload rule each: a code width wider
// than the codes need, a width byte that is no width, a truncated code
// block, a layer count one too high, and a byte after the AIM
// artifact.
func corruptCodecFiles(t testing.TB) []namedFile {
	t.Helper()
	k := testKey("resnet18", 1)
	codes := handCodes[0].codes
	data, err := Encode(k, handPlan(codes))
	if err != nil {
		t.Fatal(err)
	}
	setWidth := func(width byte) func([]byte) []byte {
		return func(p []byte) []byte {
			p[codeBlock(t, p, codes)] = width
			return p
		}
	}
	return []namedFile{
		{"width 0", reframe(t, data, setWidth(0))},
		{"width 3", reframe(t, data, setWidth(3))},
		{"width 5", reframe(t, data, setWidth(5))},
		{"non-minimal width", reframe(t, data, func(p []byte) []byte {
			at := codeBlock(t, p, codes)
			wide := append([]byte(nil), p[:at]...)
			wide = append(wide, 2)
			wide = binary.LittleEndian.AppendUint64(wide, uint64(len(codes)))
			for _, c := range codes {
				wide = binary.LittleEndian.AppendUint16(wide, uint16(c))
			}
			return append(wide, p[at+1+8+len(codes):]...)
		})},
		{"truncated code block", reframe(t, data, func(p []byte) []byte {
			return p[:codeBlock(t, p, codes)+1+8+len(codes)-1]
		})},
		{"layer count +1", reframe(t, data, func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[layerCount(t, p):], 2)
			return p
		})},
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

// TestCodeWidthRoundTrip: plans whose codes need each width round-trip
// exactly, and each is written at its minimal width.
func TestCodeWidthRoundTrip(t *testing.T) {
	k := testKey("resnet18", 1)
	for _, h := range handCodes {
		width, codes := h.width, h.codes
		if got := codeWidth(codes); got != width {
			t.Fatalf("codeWidth(%v) = %d, want %d", codes, got, width)
		}
		plan := handPlan(codes)
		data, err := Encode(k, plan)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(k, data)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(decoded, weightless(plan)) {
			t.Fatalf("width %d: decoded plan differs from the original", width)
		}
		checkDecodedPlan(t, decoded, plan)
		again, err := Encode(k, decoded)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("width %d: re-encoding differs (err %v)", width, err)
		}
	}
	if got := codeWidth(nil); got != 1 {
		t.Fatalf("codeWidth(nil) = %d, want 1", got)
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
