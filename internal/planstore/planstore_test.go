package planstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/vf"
)

// testKey mirrors the serving runtime's key derivation for the
// reference deployment point the tests compile.
func testKey(network string, seed int64) Key {
	return Key{Network: network, Mode: vf.LowPower.String(), Bits: 8, Delta: 16, Seed: seed}
}

// compileTestPlan compiles the reference plan the way the serving
// runtime does: zoo weights from the shared zoo seed, pipeline seeded
// per request.
func compileTestPlan(t testing.TB, network string, seed int64) *core.Plan {
	t.Helper()
	net, err := model.ByName(network, 2025)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(vf.LowPower)
	p.Seed = seed
	return p.Compile(net)
}

// TestRoundTripExecutesByteIdentically is the store's core guarantee:
// a decoded plan is not merely similar to the compiled original — it
// Executes byte-identically, for every worker count, so a fleet
// replica answering from disk returns exactly what the compiling
// replica returns. Run under -race this also proves a decoded plan is
// as shareable as a compiled one.
func TestRoundTripExecutesByteIdentically(t *testing.T) {
	for _, network := range []string{"resnet18", "mobilenetv2"} {
		t.Run(network, func(t *testing.T) {
			k := testKey(network, 1)
			plan := compileTestPlan(t, network, 1)
			data, err := Encode(k, plan)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(k, data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(decoded, withoutWeightsAndCodes(plan)) {
				t.Fatal("decoded plan is not deeply equal to the compiled one minus its weights and codes")
			}
			checkDecodedPlan(t, decoded, plan)
			// Structural fidelity: re-encoding the decoded plan must
			// reproduce the bytes exactly (the encoding is canonical).
			data2, err := Encode(k, decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatalf("re-encoded bytes differ: %d vs %d bytes", len(data), len(data2))
			}
			// Aliasing fidelity: wave plans must point into the decoded
			// artifact's plan slice, and layers into the shared network.
			if decoded.Baseline.Net != decoded.Net || decoded.AIM.Net != decoded.Net {
				t.Fatal("decoded artifacts do not share the plan's network")
			}
			for _, wv := range decoded.AIM.Waves {
				for _, lp := range wv.Plans {
					found := false
					for _, p := range decoded.AIM.Plans {
						if p == lp {
							found = true
							break
						}
					}
					if !found {
						t.Fatal("decoded wave references a plan copy, not the shared slice entry")
					}
				}
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				pipe := core.NewPipeline(vf.LowPower)
				pipe.Seed = 1
				pipe.Parallel = workers
				want := pipe.Execute(plan)
				got := pipe.Execute(decoded)
				if !reflect.DeepEqual(stripPointers(want), stripPointers(got)) {
					t.Fatalf("workers=%d: decoded plan executed differently\nwant %+v\ngot  %+v",
						workers, stripPointers(want), stripPointers(got))
				}
			}
		})
	}
}

// withoutWeightsAndCodes returns a copy of p whose layers carry no
// float weights and whose layer plans carry no weight codes: what a
// decoded plan must equal. p itself is left untouched, and the copy
// keeps p's aliasing (layer plans point into the copied network,
// waves into the copied plan slice).
func withoutWeightsAndCodes(p *core.Plan) *core.Plan {
	net := *p.Net
	net.Layers = make([]*model.Layer, len(p.Net.Layers))
	layers := make(map[*model.Layer]*model.Layer, len(net.Layers))
	for i, l := range p.Net.Layers {
		c := *l
		c.Weights = nil
		net.Layers[i], layers[l] = &c, &c
	}
	stage := func(c *compiler.Compiled) *compiler.Compiled {
		out := *c
		out.Net = &net
		out.Plans = make([]*compiler.LayerPlan, len(c.Plans))
		plans := make(map[*compiler.LayerPlan]*compiler.LayerPlan, len(c.Plans))
		for i, lp := range c.Plans {
			cp := *lp
			cp.Layer = layers[lp.Layer]
			cp.Quant = nil
			out.Plans[i], plans[lp] = &cp, &cp
		}
		out.Waves = make([]*compiler.Wave, len(c.Waves))
		for i, wv := range c.Waves {
			cw := *wv
			cw.Plans = make([]*compiler.LayerPlan, len(wv.Plans))
			for j, lp := range wv.Plans {
				cw.Plans[j] = plans[lp]
			}
			out.Waves[i] = &cw
		}
		return &out
	}
	return &core.Plan{Net: &net, Baseline: stage(p.Baseline), AIM: stage(p.AIM)}
}

// checkDecodedPlan asserts what a decoded plan adds to deep equality
// with its original minus weights and codes: no layer carries weights,
// no layer plan carries codes, and both stages report the original's
// quality.
func checkDecodedPlan(t testing.TB, decoded, plan *core.Plan) {
	t.Helper()
	for _, l := range decoded.Net.Layers {
		if l.Weights != nil {
			t.Fatalf("decoded layer %s carries float weights", l.Name)
		}
	}
	for _, c := range []*compiler.Compiled{decoded.Baseline, decoded.AIM} {
		for _, lp := range c.Plans {
			if lp.Quant != nil {
				t.Fatalf("decoded plan of layer %s carries weight codes", lp.Layer.Name)
			}
		}
	}
	if decoded.Baseline.Quality() != plan.Baseline.Quality() || decoded.AIM.Quality() != plan.AIM.Quality() {
		t.Fatalf("decoded quality %v/%v, compiled %v/%v",
			decoded.Baseline.Quality(), decoded.AIM.Quality(), plan.Baseline.Quality(), plan.AIM.Quality())
	}
}

// stripPointers reduces a Report to its value content: the pointer
// fields necessarily differ between a compiled and a decoded plan, so
// equality is asserted on every computed number instead.
type reportValues struct {
	Net       string
	Baseline  interface{}
	AIM       interface{}
	BaseQ     float64
	AIMQ      float64
	BaseStats interface{}
	AIMStats  interface{}
}

func stripPointers(r core.Report) reportValues {
	return reportValues{
		Net:       r.Net.Name,
		Baseline:  r.Baseline.Result,
		AIM:       r.AIM.Result,
		BaseQ:     r.Baseline.Quality,
		AIMQ:      r.AIM.Quality,
		BaseStats: r.Baseline.HR,
		AIMStats:  r.AIM.HR,
	}
}

// TestDecodeWrongKey: an entry must vouch for its own key — handing
// the right bytes to the wrong key is corruption, not a hit.
func TestDecodeWrongKey(t *testing.T) {
	k := testKey("resnet18", 1)
	plan := compileTestPlan(t, "resnet18", 1)
	data, err := Encode(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	other := k
	other.Seed = 2
	if _, err := Decode(other, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode under wrong key: err = %v, want ErrCorrupt", err)
	}
}

// TestStoreCorruptEntryFallsBack: a truncated or bit-rotted on-disk
// entry is served as a miss, counted, and swept — the caller
// recompiles instead of erroring out, and the next Get does not trip
// over the same bad file.
func TestStoreCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("resnet18", 1)
	plan := compileTestPlan(t, "resnet18", 1)
	if err := s.Put(k, plan); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored entry in place.
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh store must miss.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("corrupt entry was served")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1 Misses=1", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry was not swept")
	}
	// The miss recovers by recompiling and writing the plan back.
	if err := s2.Put(k, plan); err != nil {
		t.Fatalf("Put after corruption: %v", err)
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("store was not repopulated after recompile")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recompiled entry was not written back: %v", err)
	}
}

// TestStoreStaleVersionFallsBack: an entry written by another
// compiler generation or container format (a hand-built header with an
// old code version, or an old format version) is a counted, swept
// miss, not an error — restart after an upgrade recompiles.
func TestStoreStaleVersionFallsBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		format  uint32
		version string
	}{
		{"old code version", FormatVersion, "aim-plan-0-ancient"},
		{"old format version", FormatVersion - 1, CodeVersion},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("resnet18", 1)
			var w writer
			w.buf = append(w.buf, magic...)
			w.u32(c.format)
			w.str(c.version)
			h := k.Hash()
			if err := s.backend.Store(h, w.buf); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("stale entry was served")
			}
			if st := s.Stats(); st.Stale != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want Stale=1 Misses=1", st)
			}
			if _, err := s.backend.Load(h); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stale entry was not swept: Load err = %v", err)
			}
		})
	}
}

// TestStoreGetDecodesEveryTime: the store keeps no decoded plans, so
// each Get of a key reads and decodes its backend entry again — the
// serving cache above it asks once per key and holds the result.
func TestStoreGetDecodesEveryTime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("resnet18", 1)
	plan := compileTestPlan(t, "resnet18", 1)
	if err := s.Put(k, plan); err != nil {
		t.Fatal(err)
	}
	// Simulate a restart: a second store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := s2.Get(k)
	if !ok {
		t.Fatal("warm disk cache missed after restart")
	}
	p2, ok := s2.Get(k)
	if !ok {
		t.Fatal("second Get missed")
	}
	if st := s2.Stats(); st.DiskHits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want DiskHits=2 Misses=0", st)
	}
	if p1 == p2 {
		t.Fatal("second Get returned the first Get's instance, not a fresh decode")
	}
}

// TestStoreConcurrentGets: two keys of one network loaded from one
// store each equal their fresh compile minus the weights and codes and
// execute byte-identically to it — also when loaded and executed
// concurrently (run under -race).
func TestStoreConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{testKey("resnet18", 1), testKey("resnet18", 2)}
	plans := make([]*core.Plan, len(keys))
	want := make([]reportValues, len(keys))
	execute := func(k Key, p *core.Plan) reportValues {
		pipe := core.NewPipeline(vf.LowPower)
		pipe.Seed = k.Seed
		return stripPointers(pipe.Execute(p))
	}
	for i, k := range keys {
		plans[i] = compileTestPlan(t, k.Network, k.Seed)
		want[i] = execute(k, plans[i])
		if err := s.Put(k, plans[i]); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		p, ok := s2.Get(k)
		if !ok {
			t.Fatalf("%s missed", k.ID())
		}
		if !reflect.DeepEqual(p, withoutWeightsAndCodes(plans[i])) {
			t.Fatalf("%s: loaded plan differs from the compiled one minus its weights and codes", k.ID())
		}
		if got := execute(k, p); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s executed differently after a load", k.ID())
		}
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	got := make([]reportValues, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := keys[g%len(keys)]
			p, ok := s3.Get(k)
			if !ok {
				t.Errorf("%s missed", k.ID())
				return
			}
			got[g] = execute(k, p)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want[g%len(keys)]) {
			t.Fatalf("goroutine %d executed differently", g)
		}
	}
}

// TestDirBackend covers the backend contract directly.
func TestDirBackend(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load missing: err = %v, want ErrNotFound", err)
	}
	if err := d.Remove("deadbeef"); err != nil {
		t.Fatalf("Remove missing: %v", err)
	}
	names := []string{"aa11", "aa22", "bb33"}
	for i, n := range names {
		if err := d.Store(n, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwriting with identical bytes (content addressing) is fine.
	if err := d.Store("aa11", []byte{0}); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		data, err := d.Load(n)
		if err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("Load(%s) = %v, %v", n, data, err)
		}
	}
	got, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("List() = %v, want %v", got, names)
	}
	if err := d.Remove("aa22"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("aa22"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after Remove: err = %v, want ErrNotFound", err)
	}
}

// TestHashComposition: the content hash must move with every key field
// and with the code version — and nothing else.
func TestHashComposition(t *testing.T) {
	base := testKey("resnet18", 1)
	seen := map[string]string{base.Hash(): "base"}
	for name, k := range map[string]Key{
		"network": {Network: "gpt2", Mode: base.Mode, Bits: base.Bits, Delta: base.Delta, Seed: base.Seed},
		"mode":    {Network: base.Network, Mode: vf.Sprint.String(), Bits: base.Bits, Delta: base.Delta, Seed: base.Seed},
		"bits":    {Network: base.Network, Mode: base.Mode, Bits: 4, Delta: base.Delta, Seed: base.Seed},
		"delta":   {Network: base.Network, Mode: base.Mode, Bits: base.Bits, Delta: 8, Seed: base.Seed},
		"seed":    {Network: base.Network, Mode: base.Mode, Bits: base.Bits, Delta: base.Delta, Seed: 7},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("key variation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
	if base.Hash() != testKey("resnet18", 1).Hash() {
		t.Fatal("hash is not deterministic")
	}
}
