package planstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aim/internal/core"
)

// TestOrphanSweepOnOpen simulates the crash window the temp-file
// protocol leaves behind — a writer that died between temp-write and
// rename — and proves Open sweeps the leftovers without touching real
// entries.
func TestOrphanSweepOnOpen(t *testing.T) {
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
	// Simulate two crashed writers: a half-written temp next to the real
	// entry and one in a fanout directory of its own.
	h := k.Hash()
	orphan1 := filepath.Join(dir, h[:2], "tmp-"+h+"-123456")
	orphan2 := filepath.Join(dir, "ab", "tmp-"+"ab17"+"-777")
	if err := os.MkdirAll(filepath.Dir(orphan2), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{orphan1, orphan2} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Orphans(); err != nil || len(got) != 2 {
		t.Fatalf("Orphans() = %v, %v; want the 2 planted temp files", got, err)
	}
	// The restart path: Open must sweep the orphans and still serve the
	// real entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Orphans(); err != nil || len(got) != 0 {
		t.Fatalf("after Open: Orphans() = %v, %v; want none", got, err)
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("real entry was lost in the sweep")
	}
}

// TestFaultyStatsReconcile is the accounting proof the fault-injection
// wrapper exists for: under a backend injecting bit-flips, truncations,
// stale rewrites and write failures, every request still gets a
// byte-identical plan, and the store's Stats reconcile *exactly*
// against the injected-fault counts — no fault is unaccounted for, no
// counter moves without a cause.
func TestFaultyStatsReconcile(t *testing.T) {
	seeds := []int64{1, 2, 3}
	plans := make(map[int64]*core.Plan, len(seeds))
	want := make(map[int64][]byte, len(seeds))
	for _, seed := range seeds {
		plans[seed] = compileTestPlan(t, "resnet18", seed)
		data, err := Encode(testKey("resnet18", seed), plans[seed])
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = data
	}
	inner, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaulty(inner, FaultPlan{
		Seed:           2025,
		FlipEvery:      5,
		TruncateEvery:  7,
		StaleEvery:     11,
		FailStoreEvery: 3,
	})
	s := New(faulty)
	gets := int64(0)
	for round := 0; round < 40; round++ {
		for _, seed := range seeds {
			k := testKey("resnet18", seed)
			p, ok := s.Get(k)
			gets++
			if !ok {
				// A miss recompiles and writes the plan back, as the
				// server's plan cache does.
				p = plans[seed]
				if err := s.Put(k, p); err != nil {
					t.Fatalf("round %d seed %d: request observed an error: %v", round, seed, err)
				}
			}
			got, err := Encode(k, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[seed]) {
				t.Fatalf("round %d seed %d: request observed a non-byte-identical plan", round, seed)
			}
		}
	}
	st, fs := s.Stats(), faulty.Stats()
	faults := fs.Flips + fs.Truncations + fs.Stales
	// Every fault class must actually have fired, or the test proves
	// nothing about that class.
	if fs.Flips == 0 || fs.Truncations == 0 || fs.Stales == 0 || fs.FailedStores == 0 {
		t.Fatalf("fault plan never fired some class: %+v", fs)
	}
	if st.DiskHits+st.Misses != gets {
		t.Errorf("hits+misses = %d+%d, want %d gets", st.DiskHits, st.Misses, gets)
	}
	if st.DiskHits != fs.Loads-faults {
		t.Errorf("DiskHits = %d, want Loads-faults = %d-%d", st.DiskHits, fs.Loads, faults)
	}
	if st.Stale+st.Corrupt != faults {
		t.Errorf("Stale+Corrupt = %d+%d, want %d injected faults", st.Stale, st.Corrupt, faults)
	}
	if st.Misses != fs.NotFound+faults {
		t.Errorf("Misses = %d, want NotFound+faults = %d+%d", st.Misses, fs.NotFound, faults)
	}
	if st.Saves != fs.Stores {
		t.Errorf("Saves = %d, want %d successful backend stores", st.Saves, fs.Stores)
	}
	if st.SaveErrors != fs.FailedStores {
		t.Errorf("SaveErrors = %d, want %d injected write failures", st.SaveErrors, fs.FailedStores)
	}
}

// TestFaultyDeterminism: the same plan over the same traffic injects
// the same faults — the property that makes fault-injection tests
// reproducible rather than flaky.
func TestFaultyDeterminism(t *testing.T) {
	run := func() FaultStats {
		inner, err := OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f := NewFaulty(inner, FaultPlan{Seed: 7, FlipEvery: 2, TruncateEvery: 3, FailStoreEvery: 4})
		for i := 0; i < 20; i++ {
			name := string(rune('a'+i%4)) + "xyz"
			_ = f.Store(name, []byte("payload-payload-payload"))
			_, _ = f.Load(name)
		}
		return f.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
