package serve

import (
	"context"
	"testing"

	"aim/internal/vf"
)

// benchReq is the reference serving point the serve benchmarks share:
// the smallest zoo network, low-power mode, default knobs.
func benchReq() Request { return Request{Network: "resnet18", Mode: vf.LowPower} }

// BenchmarkServeColdCompile is the cost every one-shot aim.Run pays:
// a fresh server (empty plan cache) compiling and executing one
// request. Compare it with BenchmarkServeCachedRequest for what the
// plan cache saves.
func BenchmarkServeColdCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newTestServer(b, Options{Workers: 1})
		if _, err := s.Submit(context.Background(), benchReq()); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkServeCachedRequest is the amortized serving cost: the same
// request answered from a warm plan cache, paying only the runtime
// Execute phase.
func BenchmarkServeCachedRequest(b *testing.B) {
	s := newTestServer(b, Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(context.Background(), benchReq()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background(), benchReq()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatchedThroughput serves the 12-request mixed list
// (three plans, repeats interleaved) against a warm cache over the
// full executor pool — the batched steady state of the closed loop.
func BenchmarkServeBatchedThroughput(b *testing.B) {
	s := newTestServer(b, Options{})
	defer s.Close()
	reqs := mixedList()
	if _, err := s.ServeList(context.Background(), reqs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ServeList(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRestartWarmDisk simulates a process restart against a
// warm persistent plan store: each iteration constructs a fresh server
// (empty in-memory caches, as after a crash or deploy) pointed at a
// directory already holding the compiled plan, and serves one request.
// The plan is read and decoded off disk instead of compiled; its cost
// sits between BenchmarkServeCachedRequest and
// BenchmarkServeColdCompile.
func BenchmarkServeRestartWarmDisk(b *testing.B) {
	dir := b.TempDir()
	warm := newTestServer(b, Options{Workers: 1, PlanCacheDir: dir})
	if _, err := warm.Submit(context.Background(), benchReq()); err != nil {
		b.Fatal(err)
	}
	warm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newTestServer(b, Options{Workers: 1, PlanCacheDir: dir})
		if _, err := s.Submit(context.Background(), benchReq()); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.StopTimer()
	// Guard that the loop measured the disk-load path, not a recompile:
	// one more restart must hit the store and never the compiler.
	check := newTestServer(b, Options{Workers: 1, PlanCacheDir: dir})
	defer check.Close()
	if _, err := check.Submit(context.Background(), benchReq()); err != nil {
		b.Fatal(err)
	}
	if st := check.Stats(); st.Compiles != 0 || st.DiskHits != 1 {
		b.Fatalf("restart measured the wrong path: compiles=%d diskHits=%d, want 0/1", st.Compiles, st.DiskHits)
	}
}
