package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100 * us},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * us, End: 40 * us},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * us, End: 60 * us},   // overlaps a: [10,60] counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90 * us, End: 120 * us},  // runs past the parent: clipped to [90,100]
		{ID: 4, Parent: 1, Name: "a.x", Start: 15 * us, End: 25 * us}, // grandchild: only a's self shrinks
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * us, 20 * us, 30 * us, 30 * us, 10 * us}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {2, 4}, {9, 12}, {20, 30}}
	if got := covered(0, 25, iv); got != 4+7+5 {
		t.Errorf("covered = %v, want 16", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered(nothing) = %v", got)
	}
}

func TestNestFitsPartsInsideTheParent(t *testing.T) {
	tr := newTracer(true)
	got := tr.nest(-1, 1, 0, 40*us, []part{{"x", 30 * us}, {"y", 30 * us}})
	if got[0].Start != 0 || got[0].End != 20*us || got[1].Start != 20*us || got[1].End != 40*us {
		t.Errorf("overfull parts not scaled to fit: %+v", got)
	}
	got = tr.nest(-1, 1, 0, 40*us, []part{{"x", 5 * us}, {"y", -3 * us}, {"z", 10 * us}})
	if got[2].End != 40*us || got[2].Start != 30*us || got[1].Start != got[1].End || got[0].Start != 25*us {
		t.Errorf("parts not laid out back to back from the end: %+v", got)
	}
}

// TestLayerSelfAddsUpToTheRequest checks that the layer self times of
// a request tree account for all of its time.
func TestLayerSelfAddsUpToTheRequest(t *testing.T) {
	tr := newTracer(true)
	root := tr.add(-1, 7, "request", 0, 100*us)
	tr.add(root, 7, "loadgen.lag", 0, 10*us)
	tp := tr.add(root, 7, "transport", 10*us, 100*us)
	sv := tr.add(tp, 7, "serve", 20*us, 100*us)
	laid := tr.nest(sv, 7, 20*us, 100*us, []part{{"core.execute", 50 * us}})
	tr.nest(laid[0].ID, 7, laid[0].Start, laid[0].End, []part{{"sim.run.aim", 40 * us}})
	band, unattributed := layerSelf(tr.spans)
	sum := 0.0
	for _, l := range layers {
		sum += band[l]
	}
	if sum != ms(100*us) {
		t.Errorf("layers add up to %vms, want %vms (%v)", sum, ms(100*us), band)
	}
	for l, want := range map[string]time.Duration{"loadgen": 10 * us, "transport": 10 * us, "serve": 30 * us, "core": 10 * us, "sim": 40 * us} {
		if band[l] != ms(want) {
			t.Errorf("self %s = %vms, want %vms", l, band[l], ms(want))
		}
	}
	if unattributed != 0 {
		t.Errorf("unattributed = %v%%, want 0", unattributed)
	}
}

// TestTransportOverheadSubtractsServerLatency: the transport layer's
// figure is the client round trip minus the latency_ms the server
// reports in its answer.
func TestTransportOverheadSubtractsServerLatency(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"network": "resnet18", "latency_ms": 7.25, "plan_cached": true})
	}))
	defer ts.Close()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var s sample
	post(client, ts.URL, []byte(`{}`), &s)
	if !s.ok() || !s.http || !s.cached {
		t.Fatalf("answer not parsed: %+v", s)
	}
	s.sent = time.Unix(100, 0)
	s.done = s.sent.Add(10 * time.Millisecond)
	if got, want := transportOverhead(&s), 2750*us; got != want {
		t.Errorf("transport overhead = %v, want %v", got, want)
	}
}

// TestAttributedTimeShowsOverstatedCosts: isolated costs within the
// server's latency leave the request's latency as it is; costs beyond
// it add their excess, which nest's scaling would have hidden.
func TestAttributedTimeShowsOverstatedCosts(t *testing.T) {
	s := sample{issued: time.Unix(100, 0), server: 60 * time.Millisecond}
	s.done = s.issued.Add(100 * time.Millisecond)
	s.modelled = 45 * time.Millisecond
	if got := attributedTime(&s); got != 100*time.Millisecond {
		t.Errorf("costs within the server latency: attributed %v, want 100ms", got)
	}
	s.modelled = 180 * time.Millisecond // three times the server's latency
	if got := attributedTime(&s); got != 220*time.Millisecond {
		t.Errorf("overstated costs: attributed %v, want 220ms", got)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workload
// and metric names in step with what the program runs and prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
