package sim

import (
	"reflect"
	"testing"

	"aim/internal/compiler"
	"aim/internal/fxp"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/stream"
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
	gt := newGroupToggles(cfg, hrs, rng, &waveScratch{})
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

// TestGroupTogglesMatchesBytesReference is the engine-level
// equivalence guarantee: every cycle, each task's word-wise Rtog and
// the group's worst-task activity equal pim's one-byte-per-bit
// reference evaluated on the same toggles, unpacked — for a bank width
// that fills its last toggle word and one that does not.
func TestGroupTogglesMatchesBytesReference(t *testing.T) {
	hrs := []float64{0.1, 0.35, 0.5, 0.8}
	for _, cells := range []int{pim.DefaultConfig().CellsPerBank, 100} {
		cfg := pim.DefaultConfig()
		cfg.CellsPerBank = cells
		rng := xrand.New(seed)
		gt := newGroupToggles(cfg, hrs, rng, &waveScratch{})
		for cyc := 0; cyc < 200; cyc++ {
			gt.next(rng.Float64(), rng)
			toggles := stream.Unpack(gt.words, gt.cells)
			worst := 0.0
			for i := range hrs {
				want := gt.banks[i].RtogCycleBytes(toggles)
				if got := gt.rtog(i); got != want {
					t.Fatalf("cells=%d cycle %d task %d: rtog = %v, byte reference %v", cells, cyc, i, got, want)
				}
				worst = max(worst, want)
			}
			if got := gt.activity(); got != worst {
				t.Fatalf("cells=%d cycle %d: activity = %v, byte reference %v", cells, cyc, got, worst)
			}
		}
	}
}

// TestPackedFidelityParallelMatchesSerial extends TestParallelMatchesSerial
// to the packed engine: wave sharding must not change a bit.
// Every worker count runs the one chunked executor with per-chunk
// scratch reuse (waveScratch): odd worker counts land chunk boundaries
// mid-schedule, and one worker per wave gives every wave a fresh
// scratch — the historical allocate-per-wave reference — so reused
// banks/buffers are proven bit-identical to fresh ones at every
// boundary shape.
func TestPackedFidelityParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.CyclesPerWave = 120
	opt.Fidelity = PackedToggles
	opt.Parallel = 1
	opt.TraceWave = 0
	serial := Run(aim, pim.DefaultConfig(), opt)
	for _, workers := range []int{0, 2, 3, 5, len(aim.Waves)} {
		opt.Parallel = workers
		parallel := Run(aim, pim.DefaultConfig(), opt)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("packed fidelity not shard-deterministic at Parallel=%d:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
		}
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

func benchSimFidelity(b *testing.B, fidelity Fidelity, parallel int) {
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

// BenchmarkSimPacked measures an end-to-end PackedToggles run on one
// worker (Parallel=1): the word-wise per-cycle pipeline with every
// wave on the calling goroutine, one fresh scratch reused across the
// whole schedule (no WarmState). Compare BenchmarkSimPackedParallel
// for the wave sharding on top.
func BenchmarkSimPacked(b *testing.B) { benchSimFidelity(b, PackedToggles, 1) }

// BenchmarkSimPackedParallel is the same run with one worker per CPU
// (Parallel=0): two contiguous wave chunks per worker, each reusing
// one fresh scratch. Expected ordering: BenchmarkSimPackedParallel <=
// BenchmarkSimPacked with more than one CPU; on a single CPU the two
// do the same work.
func BenchmarkSimPackedParallel(b *testing.B) { benchSimFidelity(b, PackedToggles, 0) }

// BenchmarkSimAnalytic is the closed-form default engine, for scale.
func BenchmarkSimAnalytic(b *testing.B) { benchSimFidelity(b, AnalyticToggles, 1) }
