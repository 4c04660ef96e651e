package main

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aim/internal/serve"
	"aim/internal/vf"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		name    string
		mix     string
		wantLen int
		wantErr bool
	}{
		{name: "zoo", mix: "zoo", wantLen: 12},
		{name: "llm", mix: "llm", wantLen: 4},
		{name: "vision", mix: "vision", wantLen: 8},
		{name: "explicit pair", mix: "resnet18:sprint", wantLen: 1},
		{name: "explicit list", mix: "resnet18:sprint,gpt2:low-power", wantLen: 2},
		{name: "missing mode", mix: "resnet18", wantErr: true},
		{name: "bad mode", mix: "resnet18:turbo", wantErr: true},
	}
	for _, c := range cases {
		got, err := parseMix(c.mix)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(got) != c.wantLen {
			t.Errorf("%s: %d scenarios, want %d", c.name, len(got), c.wantLen)
		}
	}
	pair, _ := parseMix("resnet18:sprint")
	if pair[0] != (scenario{net: "resnet18", mode: vf.Sprint}) {
		t.Errorf("explicit pair parsed as %+v", pair[0])
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit = %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "Usage of aimserve") {
		t.Errorf("usage missing: %q", stderr.String())
	}
}

func TestArgumentErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad mix", []string{"-mix", "nosuchmix"}, 2},
		{"bad fidelity", []string{"-fidelity", "bogus"}, 2},
		{"zero requests", []string{"-n", "0"}, 2},
		{"unknown network in mix", []string{"-mix", "alexnet:sprint", "-n", "1"}, 1},
		{"non-pow2 delta", []string{"-mix", "resnet18:low-power", "-n", "1", "-delta", "12"}, 1},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit = %d, want %d (stderr %q)", c.name, code, c.code, stderr.String())
		}
	}
}

func TestEndToEndServe(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving run")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-n", "4", "-mix", "resnet18:low-power,resnet18:sprint", "-workers", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"== AIM serving: 4 requests",
		"tok/s", "aggregate: 4 requests",
		"plan cache:", "batching:", "latency:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEndToEndPoissonPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving run")
	}
	// A high rate keeps the pacing fast while still exercising the
	// arrival-schedule path.
	var stdout, stderr strings.Builder
	code := run([]string{"-n", "3", "-mix", "resnet18:low-power", "-rate", "50"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "aggregate: 3 requests") {
		t.Errorf("output missing aggregate:\n%s", stdout.String())
	}
}

func TestDispatchRoutesSubcommands(t *testing.T) {
	// Bare flags still reach the load generator.
	var stdout, stderr strings.Builder
	if code := dispatch([]string{"-n", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("loadgen route: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "positive request count") {
		t.Errorf("loadgen error missing: %q", stderr.String())
	}
	// A retired or misspelt mode is refused, never run as a load test.
	for _, args := range [][]string{
		{"bench-http"},
		{"-n", "1", "-mix", "resnet18:sprint", "serv"},
	} {
		var stdout, stderr strings.Builder
		if code := dispatch(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "unexpected argument") {
			t.Errorf("%v: stderr %q missing \"unexpected argument\"", args, stderr.String())
		}
	}
}

// TestServeModeFlagErrors: serve mode refuses malformed flags with
// exit 1 and a message instead of falling through to load-generator
// defaults (a server silently running unlimited would be worse than
// one that does not start).
func TestServeModeFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad warm mix", []string{"serve", "-mix", "bogus"}, "named mix"},
		{"malformed pair", []string{"serve", "-mix", "resnet18"}, "net:mode pairs"},
		{"empty network", []string{"serve", "-mix", ":sprint"}, "net:mode pairs"},
		{"negative rate", []string{"serve", "-client-rate", "-3"}, "negative per-client rate"},
		{"NaN rate", []string{"serve", "-client-rate", "NaN"}, "non-finite per-client rate"},
		{"negative burst", []string{"serve", "-client-rate", "1", "-client-burst", "-2"}, "negative rate-limit burst"},
		{"burst without rate", []string{"serve", "-client-burst", "4"}, "without a per-client rate"},
		{"negative slo", []string{"serve", "-slo-p95", "-1s"}, "negative SLO target"},
		{"negative queue", []string{"serve", "-queue", "-1"}, "negative queue depth"},
		{"unknown flag", []string{"serve", "-bogus"}, "flag provided but not defined"},
		{"unknown warm network", []string{"serve", "-mix", "alexnet:sprint"}, "alexnet"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		if code := dispatch(c.args, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit = %d, want 1 (stderr %q)", c.name, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q missing %q", c.name, stderr.String(), c.want)
		}
	}
	var stdout, stderr strings.Builder
	if code := dispatch([]string{"serve", "-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("serve -h: exit = %d, want 0", code)
	}
}

func TestArrivalOffsets(t *testing.T) {
	for _, kind := range []string{"poisson", "bursty", "diurnal"} {
		a, err := arrivalOffsets(kind, 16, 100, 4, time.Second, 7)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, _ := arrivalOffsets(kind, 16, 100, 4, time.Second, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: offsets not deterministic at %d: %v vs %v", kind, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Errorf("%s: offsets not monotonic at %d", kind, i)
			}
		}
	}
	if off, err := arrivalOffsets("poisson", 8, 0, 4, time.Second, 1); err != nil || off != nil {
		t.Errorf("rate 0 must mean closed loop, got %v, %v", off, err)
	}
	if _, err := arrivalOffsets("weird", 8, 10, 4, time.Second, 1); err == nil {
		t.Error("unknown arrival process must error")
	}
	if _, err := arrivalOffsets("bursty", 8, 10, 0.5, time.Second, 1); err == nil {
		t.Error("burst factor under 1 must error")
	}
	if _, err := arrivalOffsets("diurnal", 8, 10, 4, 0, 1); err == nil {
		t.Error("zero period must error")
	}
	// NaN slips past rate <= 0, and an offset past the Duration range
	// wraps negative; either would stall the pacing sleep for good.
	if _, err := arrivalOffsets("poisson", 8, math.NaN(), 4, time.Second, 1); err == nil {
		t.Error("NaN rate must error")
	}
	if _, err := arrivalOffsets("poisson", 8, 1e-12, 4, time.Second, 1); err == nil {
		t.Error("offsets past the Duration range must error")
	}
}

func TestLoadgenArrivalFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-rate", "5", "-arrivals", "weird"},
		{"-rate", "5", "-arrivals", "bursty", "-burst-factor", "0.5"},
		{"-rate", "5", "-arrivals", "diurnal", "-period", "0s"},
		{"-rate", "NaN"},
	}
	for _, args := range cases {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

func FuzzParseMix(f *testing.F) {
	for _, s := range []string{
		"zoo", "llm", "vision", "resnet18:sprint",
		"resnet18:sprint,gpt2:low-power", "resnet18", ":sprint",
		"a:b", "", ",", "x:sprint,", "zoo:zoo",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		scen, err := parseMix(s)
		if err != nil {
			return
		}
		if len(scen) == 0 {
			t.Fatalf("parseMix(%q) returned no scenarios and no error", s)
		}
		for _, sc := range scen {
			if sc.net == "" {
				t.Fatalf("parseMix(%q) accepted an empty network", s)
			}
		}
	})
}

func TestTargetModeAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving run")
	}
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var stdout, stderr strings.Builder
	code := run([]string{"-n", "3", "-mix", "resnet18:low-power", "-target", ts.URL}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"3 ok, 0 shed", "latency:", "shed rate: 0.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if st := srv.Stats(); st.Requests != 3 || st.Compiles != 1 {
		t.Errorf("server saw %d requests / %d compiles, want 3/1", st.Requests, st.Compiles)
	}
}

func TestTargetModeUnreachable(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-n", "1", "-mix", "resnet18:low-power", "-target", "http://127.0.0.1:1"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("unreachable target: exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no request succeeded") {
		t.Errorf("stderr %q missing failure message", stderr.String())
	}
}
