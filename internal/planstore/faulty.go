package planstore

import (
	"sync"
	"time"

	"aim/internal/xrand"
)

// FaultPlan schedules deterministic fault injection for a Faulty
// backend. Every *Every field injects its fault on each Nth eligible
// operation (0 disables the class); eligible means the underlying
// operation would have succeeded, so a scheduled fault is never wasted
// on a miss and injected-fault counts reconcile exactly against the
// store's Stats. When several classes land on the same operation, the
// first of flip, truncate, stale wins — at most one fault per load, so
// the counts stay additive.
type FaultPlan struct {
	// Seed drives the fault-site draws (which byte flips, where a
	// truncation cuts); the schedule itself is the deterministic
	// operation count, so a fixed plan injects identical faults on
	// every run.
	Seed int64
	// FlipEvery bit-flips one seeded byte of every Nth loaded blob —
	// silent media corruption.
	FlipEvery int
	// TruncateEvery cuts every Nth loaded blob at a seeded offset —
	// a torn write or short read.
	TruncateEvery int
	// StaleEvery replaces every Nth loaded blob with a valid envelope
	// from an ancient code version — an entry surviving an upgrade.
	StaleEvery int
	// FailStoreEvery fails every Nth write with an injected error —
	// a full or read-only disk.
	FailStoreEvery int
	// Latency is added to every Load and Store — a slow or contended
	// device. It perturbs scheduling, never results.
	Latency time.Duration
}

// FaultStats counts a Faulty backend's traffic and injected faults.
// The store's own Stats must reconcile against these exactly:
//
//	Stats.DiskHits   == Loads - Flips - Truncations - Stales
//	Stats.Stale + Stats.Corrupt == Flips + Truncations + Stales
//	Stats.Misses     == NotFound + Flips + Truncations + Stales
//	Stats.Saves      == Stores
//	Stats.SaveErrors == FailedStores
type FaultStats struct {
	// Loads counts successful underlying loads (before fault
	// injection); NotFound counts loads that missed.
	Loads, NotFound int64
	// Flips, Truncations and Stales count loads answered with the
	// respective corruption injected.
	Flips, Truncations, Stales int64
	// Stores counts successful writes; FailedStores writes answered
	// with an injected error (the blob is NOT written).
	Stores, FailedStores int64
}

// staleCodeVersion is the generation string injected stale entries
// claim; any value other than CodeVersion works.
const staleCodeVersion = "aim-plan-0-faulty"

// Faulty wraps a Backend with deterministic, seeded fault injection:
// bit-flips, truncations, stale rewrites and write failures on a fixed
// schedule, plus optional latency. It exists to prove the serving
// stack's failure contract — corrupt or stale entries degrade to a
// recompile and write failures never fail serving — under misbehaviour
// no unit test of the happy path exercises. Safe for concurrent use;
// under concurrency the set of faulted operations is fixed by the
// schedule even though which request observes a fault may vary.
type Faulty struct {
	inner Backend
	plan  FaultPlan

	mu    sync.Mutex
	rng   *xrand.RNG
	stats FaultStats
}

// NewFaulty wraps a backend with the given fault plan.
func NewFaulty(inner Backend, plan FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan, rng: xrand.NewNamed(plan.Seed, "planstore/faulty")}
}

// Stats snapshots the injected-fault counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// every reports whether the n'th operation (1-based) trips a fault
// class configured to fire every k operations.
func every(n int64, k int) bool { return k > 0 && n%int64(k) == 0 }

// Load implements Backend: the underlying blob, possibly corrupted
// according to the fault plan. The returned slice is always a private
// copy, so injected corruption cannot leak into a caller that aliases
// backend storage.
func (f *Faulty) Load(name string) ([]byte, error) {
	if f.plan.Latency > 0 {
		time.Sleep(f.plan.Latency)
	}
	data, err := f.inner.Load(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.stats.NotFound++
		return nil, err
	}
	f.stats.Loads++
	data = append([]byte(nil), data...)
	switch n := f.stats.Loads; {
	case every(n, f.plan.FlipEvery):
		f.stats.Flips++
		data[f.rng.Intn(len(data))] ^= 1 << f.rng.Intn(8)
	case every(n, f.plan.TruncateEvery):
		f.stats.Truncations++
		data = data[:f.rng.Intn(len(data))]
	case every(n, f.plan.StaleEvery):
		f.stats.Stales++
		var w writer
		w.buf = append(w.buf, magic...)
		w.u32(FormatVersion)
		w.str(staleCodeVersion)
		data = w.buf
	}
	return data, nil
}

// Store implements Backend, failing every Nth write with an injected
// error instead of writing.
func (f *Faulty) Store(name string, data []byte) error {
	if f.plan.Latency > 0 {
		time.Sleep(f.plan.Latency)
	}
	f.mu.Lock()
	n := f.stats.Stores + f.stats.FailedStores + 1
	if every(n, f.plan.FailStoreEvery) {
		f.stats.FailedStores++
		f.mu.Unlock()
		return errInjectedWrite
	}
	f.stats.Stores++
	f.mu.Unlock()
	return f.inner.Store(name, data)
}

// errInjectedWrite is the deliberate write failure a Faulty backend
// answers scheduled Stores with.
var errInjectedWrite = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "planstore: injected write fault" }

// Remove implements Backend.
func (f *Faulty) Remove(name string) error { return f.inner.Remove(name) }
