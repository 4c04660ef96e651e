package sim

import (
	"reflect"
	"testing"

	"aim/internal/compiler"
	"aim/internal/fxp"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

func TestValueOfCodeInvertsFxpCode(t *testing.T) {
	for _, q := range []int{4, 8} {
		for code := uint32(0); code < 1<<uint(q); code++ {
			v := valueOfCode(code, q)
			if got := fxp.Code(v, q); got != code {
				t.Fatalf("q=%d: Code(valueOfCode(%#x)) = %#x", q, code, got)
			}
		}
	}
}

// TestDrawCodesMatchesPerDrawLoop: the bulk-filled weight codes must
// equal a cell-major, bit-minor loop of per-bit Bernoulli draws, for
// widths whose codes do and do not straddle 64-bit words, and leave
// the generator where that loop would.
func TestDrawCodesMatchesPerDrawLoop(t *testing.T) {
	const cells = 128
	for _, q := range []int{2, 5, 8, 16} {
		for _, hr := range []float64{0, 0.3, 0.5, 1} {
			bulk, ref := xrand.New(int64(q)), xrand.New(int64(q))
			got := make([]int32, cells)
			drawCodes(got, q, hr, bulk, make([]uint64, (cells*q+63)/64))
			for k := range got {
				var code uint32
				for i := 0; i < q; i++ {
					if ref.Bernoulli(hr) {
						code |= 1 << uint(i)
					}
				}
				if want := valueOfCode(code, q); got[k] != want {
					t.Fatalf("q=%d hr=%v: code %d = %d, per-draw loop %d", q, hr, k, got[k], want)
				}
			}
			if a, b := bulk.Int63(), ref.Int63(); a != b {
				t.Fatalf("q=%d hr=%v: next draw %d, per-draw loop %d", q, hr, a, b)
			}
		}
	}
}

func TestGroupTogglesHRMatchesTask(t *testing.T) {
	cfg := pim.DefaultConfig()
	rng := xrand.New(1)
	hrs := []float64{0.25, 0.5}
	gt := newGroupToggles(cfg, hrs, rng, false, nil)
	if len(gt.banks) != 2 {
		t.Fatalf("banks = %d", len(gt.banks))
	}
	for i, want := range hrs {
		got := gt.banks[i].HR()
		// 1024 stored bits per bank: the sample HR concentrates near
		// the task HR.
		if got < want-0.06 || got > want+0.06 {
			t.Errorf("bank %d HR = %.3f, want ~%.2f", i, got, want)
		}
	}
}

// TestPackedFidelityMatchesBytesReference is the simulator-level
// equivalence guarantee: a full PackedToggles run over the word-wise
// engine produces the exact same Result — every drop, power, TOPS and
// trace float — as the legacy one-byte-per-bit reference path, for
// fixed seeds.
func TestPackedFidelityMatchesBytesReference(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.CyclesPerWave = 120
	opt.Fidelity = PackedToggles
	packed := Run(aim, pim.DefaultConfig(), opt)

	opt.bytesReference = true
	bytes := Run(aim, pim.DefaultConfig(), opt)

	if !reflect.DeepEqual(packed, bytes) {
		t.Errorf("packed fidelity diverged from byte reference:\npacked: %+v\nbytes:  %+v", packed, bytes)
	}
}

// TestPackedFidelityParallelMatchesSerial extends PR 1's determinism
// guarantee to the packed engine: wave sharding must not change a bit.
// Parallel != 1 additionally exercises the chunked executor with
// per-chunk scratch reuse (waveScratch) — odd worker counts land chunk
// boundaries mid-schedule, so reused banks/buffers are proven
// bit-identical to the allocate-per-wave reference at every boundary
// shape.
func TestPackedFidelityParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.CyclesPerWave = 120
	opt.Fidelity = PackedToggles
	opt.Parallel = 1
	serial := Run(aim, pim.DefaultConfig(), opt)
	for _, workers := range []int{0, 2, 3, 5} {
		opt.Parallel = workers
		parallel := Run(aim, pim.DefaultConfig(), opt)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("packed fidelity not shard-deterministic at Parallel=%d:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
		}
	}
}

// TestBytesReferenceParallelMatchesSerial covers the pooled byte
// buffers of the legacy reference engine under chunking too.
func TestBytesReferenceParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.CyclesPerWave = 60
	opt.Fidelity = PackedToggles
	opt.bytesReference = true
	opt.Parallel = 1
	serial := Run(aim, pim.DefaultConfig(), opt)
	opt.Parallel = 3
	chunked := Run(aim, pim.DefaultConfig(), opt)
	if !reflect.DeepEqual(serial, chunked) {
		t.Errorf("byte-reference engine not chunk-deterministic:\nserial:  %+v\nchunked: %+v", serial, chunked)
	}
}

// TestPackedFidelityPlausible: the microarchitectural engine must tell
// the same qualitative story as the analytic model — drops in the same
// band, mitigation positive.
func TestPackedFidelityPlausible(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	analytic := Run(aim, pim.DefaultConfig(), opt)
	opt.Fidelity = PackedToggles
	packed := Run(aim, pim.DefaultConfig(), opt)
	if packed.WorstDropMV <= 0 || packed.Mitigation <= 0 {
		t.Fatalf("packed run implausible: %+v", packed)
	}
	// Same model, same workload: the two engines agree within the
	// binomial cell-level variance the packed engine adds (~±35%).
	lo, hi := analytic.AvgDropMV*0.65, analytic.AvgDropMV*1.35
	if packed.AvgDropMV < lo || packed.AvgDropMV > hi {
		t.Errorf("packed AvgDrop %.2f mV far from analytic %.2f mV", packed.AvgDropMV, analytic.AvgDropMV)
	}
}

func benchSimFidelity(b *testing.B, fidelity Fidelity, bytesRef bool, parallel int) {
	net, err := model.ByName("resnet18", seed)
	if err != nil {
		b.Fatal(err)
	}
	copt := compiler.DefaultOptions()
	copt.Strategy = compiler.SequentialMap
	c := compiler.Compile(net, pim.DefaultConfig(), copt)
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.Fidelity = fidelity
	opt.bytesReference = bytesRef
	opt.Parallel = parallel
	Run(c, pim.DefaultConfig(), opt) // untimed warm-up: page in caches and heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(c, pim.DefaultConfig(), opt)
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSimPacked measures an end-to-end PackedToggles run on the
// serial reference path (Parallel=1): the word-wise per-cycle pipeline
// with one fresh allocation set per wave. Compare
// BenchmarkSimPackedBytes (the legacy byte walk) for the packed
// speedup, and BenchmarkSimPackedParallel for the production path.
func BenchmarkSimPacked(b *testing.B) { benchSimFidelity(b, PackedToggles, false, 1) }

// BenchmarkSimPackedParallel is the production wave executor
// (Parallel=0): contiguous wave chunks with per-chunk scratch reuse,
// one worker per CPU. Expected ordering:
// BenchmarkSimPackedParallel <= BenchmarkSimPacked on any machine —
// with a single CPU the chunked path still wins by skipping the
// per-wave synthetic-bank reallocations (roughly half the run's
// allocations); with more CPUs the wave sharding compounds on top.
func BenchmarkSimPackedParallel(b *testing.B) { benchSimFidelity(b, PackedToggles, false, 0) }

// BenchmarkSimPackedBytes is the same run on the retained
// one-byte-per-bit reference engine.
func BenchmarkSimPackedBytes(b *testing.B) { benchSimFidelity(b, PackedToggles, true, 1) }

// BenchmarkSimAnalytic is the closed-form default engine, for scale.
func BenchmarkSimAnalytic(b *testing.B) { benchSimFidelity(b, AnalyticToggles, false, 1) }
