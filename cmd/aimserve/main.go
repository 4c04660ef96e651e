// Command aimserve drives the compile-once serving runtime — the
// paper's d-Matrix/Houmo scenario of a PIM chip serving models under
// load. It has two modes:
//
//	aimserve          closed-loop load generator (deterministic
//	                  aggregate report beside serving metrics)
//	aimserve serve    host the HTTP/JSON API on an address
//
// Load-generator usage:
//
//	aimserve [-n 48] [-rate 0] [-arrivals poisson|bursty|diurnal]
//	         [-burst-factor 4] [-period 2s] [-mix zoo|llm|vision|net:mode,...]
//	         [-workers N] [-beta 50] [-delta 0] [-seed 1] [-parallel 1]
//	         [-fidelity analytic|packed|spatial|auto] [-spatial-window N]
//	         [-spatial-skip MV] [-spatial-adaptive] [-target URL]
//
// With -target the generator POSTs the same deterministic request
// list to a live `aimserve serve` instance instead of an in-process
// server, counting 429 refusals as shed load.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"aim"
	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch routes to a subcommand; bare arguments mean the
// load-generator mode.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout, stderr)
	}
	return run(args, stdout, stderr)
}

// scenario is one (network, mode) deployment point of a mix.
type scenario struct {
	net  string
	mode vf.Mode
}

// namedMixes are the built-in scenario mixes. "zoo" spans all six
// networks in both modes; "llm" is the serving headline (transformer
// decoding); "vision" covers the conv/vision workloads.
func namedMixes() map[string][]scenario {
	modes := []vf.Mode{vf.Sprint, vf.LowPower}
	mk := func(nets ...string) []scenario {
		var out []scenario
		for _, n := range nets {
			for _, m := range modes {
				out = append(out, scenario{net: n, mode: m})
			}
		}
		return out
	}
	return map[string][]scenario{
		"zoo":    mk(aim.Networks()...),
		"llm":    mk("gpt2", "llama3"),
		"vision": mk("resnet18", "mobilenetv2", "yolov5", "vit"),
	}
}

// parseMix resolves a named mix or an explicit net:mode[,net:mode...]
// list.
func parseMix(s string) ([]scenario, error) {
	if mix, ok := namedMixes()[s]; ok {
		return mix, nil
	}
	var out []scenario
	for _, part := range strings.Split(s, ",") {
		net, modeName, ok := strings.Cut(part, ":")
		if !ok || net == "" {
			return nil, fmt.Errorf("mix %q: want a named mix (zoo|llm|vision) or net:mode pairs", s)
		}
		var mode vf.Mode
		switch modeName {
		case "sprint":
			mode = vf.Sprint
		case "low-power":
			mode = vf.LowPower
		default:
			return nil, fmt.Errorf("mix %q: unknown mode %q (want sprint|low-power)", s, modeName)
		}
		out = append(out, scenario{net: net, mode: mode})
	}
	return out, nil
}

// arrivalOffsets builds the deterministic arrival schedule: cumulative
// offsets from the run start, drawn from a named stream so a fixed
// seed replays the same traffic. The rate profile is
//
//	poisson  constant rate
//	bursty   square wave — factor× the base rate for the first half
//	         of every period, base rate for the second
//	diurnal  sinusoid between the base rate and factor× it
//
// A nil schedule (rate 0) means closed-loop: submit everything at
// once.
func arrivalOffsets(kind string, n int, rate, factor float64, period time.Duration, seed int64) ([]time.Duration, error) {
	switch kind {
	case "poisson", "bursty", "diurnal":
	default:
		return nil, fmt.Errorf("arrivals %q: want poisson, bursty or diurnal", kind)
	}
	if math.IsNaN(rate) {
		return nil, fmt.Errorf("rate %v: want a non-negative arrival rate", rate)
	}
	if rate <= 0 {
		return nil, nil
	}
	if kind != "poisson" {
		if factor < 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
			return nil, fmt.Errorf("burst-factor %v: want a factor >= 1", factor)
		}
		if period <= 0 {
			return nil, fmt.Errorf("period %v: want a positive period", period)
		}
	}
	arr := xrand.NewNamed(seed, "aimserve/arrivals")
	p := period.Seconds()
	t := 0.0
	out := make([]time.Duration, n)
	for i := range out {
		r := rate
		switch kind {
		case "bursty":
			if math.Mod(t, p) < p/2 {
				r = rate * factor
			}
		case "diurnal":
			r = rate * (1 + (factor-1)*(1+math.Sin(2*math.Pi*t/p))/2)
		}
		t += arr.Exp(r)
		// A schedule past the Duration range would wrap negative
		// and turn the pacing sleep into centuries.
		ns := t * float64(time.Second)
		if ns >= math.MaxInt64 {
			return nil, fmt.Errorf("rate %v: arrival %d falls %.3g s out, past the schedulable range", rate, i, t)
		}
		out[i] = time.Duration(ns)
	}
	return out, nil
}

// run is the load-generator entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 48, "number of requests")
	rate := fs.Float64("rate", 0, "base arrival rate in req/s (0 = submit everything immediately)")
	arrivals := fs.String("arrivals", "poisson", "arrival process: poisson|bursty|diurnal (needs -rate)")
	burstFactor := fs.Float64("burst-factor", 4, "peak-to-base rate ratio for bursty/diurnal arrivals")
	period := fs.Duration("period", 2*time.Second, "burst/diurnal cycle length")
	mix := fs.String("mix", "zoo", "scenario mix: zoo|llm|vision or a net:mode[,net:mode...] list")
	workers := fs.Int("workers", 0, "executor pool size (0 = one per CPU)")
	beta := fs.Int("beta", 50, "IR-Booster stability horizon β (cycles)")
	delta := fs.Int("delta", 0, "WDS shift δ (0 = default 16, -1 = disable WDS)")
	seed := fs.Int64("seed", 1, "random seed (scenario draws, arrival gaps, pipeline)")
	parallel := fs.Int("parallel", 1, "per-request wave pool (fleet parallelism comes from -workers)")
	fidelityName := fs.String("fidelity", "analytic", "simulator tier: analytic|packed|spatial, or auto for the SLO ladder (runtime knob; plans are shared across tiers)")
	spatialWindow := fs.Int("spatial-window", 0, "spatial tier mesh-solve cadence in cycles (0 = default)")
	spatialSkip := fs.Float64("spatial-skip", 0, "spatial tier incremental skip threshold in mV (0 = solve every window)")
	spatialAdaptive := fs.Bool("spatial-adaptive", false, "adapt the spatial solve cadence to activity variance")
	planCacheDir := fs.String("plan-cache-dir", "", "persist compiled plans to this directory and reuse them across restarts (empty = in-process cache only)")
	target := fs.String("target", "", "POST to a live aimserve serve URL instead of an in-process server")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aimserve: unexpected argument %q (modes: serve, or flags only for the load generator)\n", fs.Arg(0))
		return 2
	}
	scen, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(stderr, "aimserve: %v\n", err)
		return 2
	}
	var fidelity sim.Fidelity
	adapt := *fidelityName == "auto"
	if !adapt {
		fidelity, err = sim.ParseFidelity(*fidelityName)
		if err != nil {
			fmt.Fprintf(stderr, "aimserve: %v\n", err)
			return 2
		}
	}
	if *n <= 0 {
		fmt.Fprintf(stderr, "aimserve: -n %d: want a positive request count\n", *n)
		return 2
	}

	// The request list and arrival schedule are deterministic in the
	// seed: scenario draws and arrival gaps come from their own named
	// streams, so a fixed invocation replays the same traffic.
	pick := xrand.NewNamed(*seed, "aimserve/mix")
	reqs := make([]serve.Request, *n)
	for i := range reqs {
		sc := scen[pick.Intn(len(scen))]
		reqs[i] = serve.Request{
			Network: sc.net, Mode: sc.mode,
			Beta: *beta, Delta: *delta, Seed: *seed, Parallel: *parallel,
			Fidelity: fidelity, AdaptFidelity: adapt,
			SpatialWindow: *spatialWindow, SpatialSkipMV: *spatialSkip,
			SpatialAdaptive: *spatialAdaptive,
		}
	}
	offsets, err := arrivalOffsets(*arrivals, *n, *rate, *burstFactor, *period, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "aimserve: %v\n", err)
		return 2
	}

	if *target != "" {
		return runAgainstTarget(*target, reqs, offsets, stdout, stderr)
	}

	// Closed loop against an in-process server: size the queue to the
	// whole request list so admission never sheds and the aggregate
	// report stays deterministic.
	queue := *n
	if queue < 256 {
		queue = 256
	}
	srv, err := serve.New(serve.Options{Workers: *workers, Queue: queue, PlanCacheDir: *planCacheDir})
	if err != nil {
		fmt.Fprintf(stderr, "aimserve: %v\n", err)
		return 2
	}
	defer srv.Close()
	start := time.Now() //aimlint:allow no-wallclock — the load generator measures real latency; deterministic output is serve.Render below
	resps := make([]serve.Response, *n)
	errs := make([]error, *n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		//aimlint:allow no-naked-go — closed-loop client goroutines, one per in-flight request; they exercise the pool, they are not simulation work
		go func(i int) {
			defer wg.Done()
			if offsets != nil {
				//aimlint:allow no-wallclock — paces the deterministic arrival offsets against real time
				time.Sleep(offsets[i] - time.Since(start))
			}
			resps[i], errs[i] = srv.Submit(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "aimserve: %v\n", err)
			return 1
		}
	}
	wall := time.Since(start) //aimlint:allow no-wallclock — wall-clock throughput line is printed after the deterministic Render

	fmt.Fprintf(stdout, "== AIM serving: %d requests, mix %q ==\n", *n, *mix)
	io.WriteString(stdout, serve.Render(reqs, resps))
	m := srv.Metrics()
	amortized := 0.0
	if m.Requests > 0 {
		amortized = 100 * float64(m.Requests-m.Compiles) / float64(m.Requests)
	}
	fmt.Fprintf(stdout, "\nserving metrics (wall-clock, load-dependent):\n")
	fmt.Fprintf(stdout, "  throughput:  %.1f req/s over %v\n", float64(*n)/wall.Seconds(), wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  latency:     p50 %v  p95 %v  p99 %v\n",
		m.P50.Round(time.Millisecond), m.P95.Round(time.Millisecond), m.P99.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  plan cache:  %d compiles, %d hits (%.0f%% of requests amortized)\n",
		m.Compiles, m.PlanHits, amortized)
	if *planCacheDir != "" {
		fmt.Fprintf(stdout, "  plan store:  %d plans loaded from %s instead of compiled\n",
			m.DiskHits, *planCacheDir)
	}
	fmt.Fprintf(stdout, "  batching:    %d batches, mean %.1f req/batch\n", m.Batches, m.MeanBatch)
	if m.SpatialSolves+m.SpatialSkips > 0 {
		fmt.Fprintf(stdout, "  spatial:     %d solves (%d V-cycles, %d saturated), %d windows skipped\n",
			m.SpatialSolves, m.SpatialVCycles, m.SpatialSaturated, m.SpatialSkips)
	}
	if adapt {
		fmt.Fprintf(stdout, "  ladder:      tier %s, %d down / %d up; served %d analytic / %d packed / %d spatial\n",
			m.LadderTier, m.LadderDowns, m.LadderUps,
			m.ServedAnalytic, m.ServedPacked, m.ServedSpatial)
	}
	return 0
}

// sortDurations sorts a latency sample in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}
