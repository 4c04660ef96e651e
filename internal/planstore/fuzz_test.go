package planstore

import (
	"bytes"
	"testing"
)

// FuzzPlanDecode feeds the decoder hostile bytes: the engine mutates
// real encoded plans (the seed corpus) plus the classic deterministic
// corruptions — truncations at every stride and single-byte flips
// across the file. The decoder must never panic or over-allocate, and
// on the rare mutation that still decodes, the canonical-encoding
// invariant must hold: re-encoding reproduces the input byte-for-byte,
// so a fuzz-found "success" is a genuine valid encoding, not a decoder
// that got lucky.
func FuzzPlanDecode(f *testing.F) {
	k := testKey("resnet18", 1)
	for _, network := range []string{"resnet18", "mobilenetv2"} {
		data, err := Encode(testKey(network, 1), compileTestPlan(f, network, 1))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Deterministic corruptions of the real artifact, so even a
		// -fuzztime too short to mutate covers the classic failure
		// shapes (strides offset by primes to avoid word boundaries).
		truncStride := len(data)/13 + 1
		for n := 0; n < len(data); n += truncStride {
			f.Add(append([]byte(nil), data[:n]...))
		}
		flipStride := len(data)/17 + 1
		for i := 0; i < len(data); i += flipStride {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x41
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	// A hand-built file, and well-framed payloads breaking one
	// structural rule each.
	data, err := Encode(k, handPlan(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, c := range corruptCodecFiles(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(k, data)
		if err != nil {
			return
		}
		reenc, err := Encode(k, p)
		if err != nil {
			t.Fatalf("decoded plan does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("decode succeeded on %d bytes that are not a canonical encoding", len(data))
		}
	})
}
