package serve

import (
	"testing"
	"time"

	"aim/internal/planstore"
)

// TestServeFaultInjection drives the full serving stack — HTTP front
// door, admission, the SLO ladder, execution — over a plan store whose
// backend misbehaves on a deterministic schedule (bit-flips,
// truncations, stale rewrites, write failures, latency), across
// repeated server restarts so every request generation has to face the
// disk. The contract under proof: not one request fails, every answer
// is byte-identical to a pristine in-memory server's, and when the
// dust settles the store's counters reconcile exactly against the
// injected-fault counts — the serving path degrades corrupt and stale
// entries to recompiles, silently and accountably.
func TestServeFaultInjection(t *testing.T) {
	// Three deployment points over two plan keys: the default and the
	// "auto" request share a key (one cached plan serving two tiers —
	// the ladder path), the sprint request has its own.
	bodies := []string{
		`{"network": "mobilenetv2", "mode": "low-power", "seed": 1}`,
		`{"network": "mobilenetv2", "mode": "low-power", "seed": 1, "fidelity": "auto"}`,
		`{"network": "mobilenetv2", "mode": "sprint", "seed": 2, "fidelity": "packed"}`,
	}
	// A generous SLO keeps the ladder deterministically at its top
	// tier, so "auto" always serves spatial and responses are
	// comparable across servers.
	opts := func() Options { return Options{Workers: 2, TargetP95: time.Hour} }

	// Reference answers from a pristine, store-less server.
	ref := make([]wireResponse, len(bodies))
	s := newTestServer(t, opts())
	for i, body := range bodies {
		rr := post(t, s.Handler(), body, nil)
		if rr.Code != 200 {
			t.Fatalf("reference request %d: HTTP %d: %s", i, rr.Code, rr.Body.String())
		}
		ref[i] = normalize(decodeWire(t, rr))
	}
	s.Close()
	if ref[1].Fidelity != "spatial" {
		t.Fatalf("auto request served %q, want the ladder's top tier", ref[1].Fidelity)
	}

	// One faulty backend shared across every restart, so the fault
	// schedule spans the whole test.
	inner, err := planstore.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := planstore.NewFaulty(inner, planstore.FaultPlan{
		Seed:           2025,
		FlipEvery:      3,
		TruncateEvery:  4,
		StaleEvery:     5,
		FailStoreEvery: 2,
		Latency:        time.Millisecond,
	})
	var agg planstore.Stats
	const restarts = 10
	for r := 0; r < restarts; r++ {
		// A fresh server per restart: a cold singleflight map, so
		// every key lookup reaches the faulty backend.
		store := planstore.New(faulty)
		opt := opts()
		opt.planStore = store
		srv, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, body := range bodies {
			rr := post(t, srv.Handler(), body, nil)
			if rr.Code != 200 {
				t.Fatalf("restart %d request %d: HTTP %d: %s", r, i, rr.Code, rr.Body.String())
			}
			if got := normalize(decodeWire(t, rr)); got != ref[i] {
				t.Fatalf("restart %d request %d: response diverged under faults\ngot  %+v\nwant %+v", r, i, got, ref[i])
			}
		}
		srv.Close()
		st := store.Stats()
		agg.DiskHits += st.DiskHits
		agg.Misses += st.Misses
		agg.Stale += st.Stale
		agg.Corrupt += st.Corrupt
		agg.Saves += st.Saves
		agg.SaveErrors += st.SaveErrors
	}

	fs := faulty.Stats()
	faults := fs.Flips + fs.Truncations + fs.Stales
	// Every injected class must actually have fired (latency fires on
	// every backend operation by construction).
	if fs.Flips == 0 || fs.Truncations == 0 || fs.Stales == 0 || fs.FailedStores == 0 {
		t.Fatalf("fault plan never fired some class over %d restarts: %+v", restarts, fs)
	}
	// The accounting proof: the stores' summed counters reconcile
	// exactly with the backend's injected-fault counts.
	if agg.DiskHits != fs.Loads-faults {
		t.Errorf("DiskHits = %d, want Loads-faults = %d-%d", agg.DiskHits, fs.Loads, faults)
	}
	if agg.Stale+agg.Corrupt != faults {
		t.Errorf("Stale+Corrupt = %d+%d, want %d injected faults", agg.Stale, agg.Corrupt, faults)
	}
	if agg.Misses != fs.NotFound+faults {
		t.Errorf("Misses = %d, want NotFound+faults = %d+%d", agg.Misses, fs.NotFound, faults)
	}
	if agg.Saves != fs.Stores {
		t.Errorf("Saves = %d, want %d successful backend stores", agg.Saves, fs.Stores)
	}
	if agg.SaveErrors != fs.FailedStores {
		t.Errorf("SaveErrors = %d, want %d injected write failures", agg.SaveErrors, fs.FailedStores)
	}
}

// normalize zeroes a wire response's volatile fields (latency, cache
// provenance) so byte-identity means "same deterministic answer".
func normalize(w wireResponse) wireResponse {
	w.LatencyMS = 0
	w.PlanCached = false
	return w
}
