// Command e2ebench is the repository's end-to-end benchmark: it drives
// the serving stack (serve → core → sim, with the plan cache, compiler
// and plan store under it) through public entry points only, checks
// every answer against a one-shot reference, and prints one JSON result
// line. Run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: http-analytic-open, spatial-closed, compile-restart (see
// README.md). With --trace 0 the result carries
// the end-to-end metrics; with --trace 1 the run measures the workload
// untraced and then traced, and the result carries the per-layer
// metrics. Exit status: 0 when every answer was right, 1 on a wrong
// answer, a saturated solve, a bypass violation or a run failure, 2 on
// bad flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(r *run) error{
	"http-analytic-open": runOpen,
	"spatial-closed":     runSpatial,
	"compile-restart":    runCompileRestart,
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the server sees, reported by every
// workload's untraced run (BENCHMARK.json lists the same names).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0 for its counts and times.
var perLayer = []metricSpec{
	{"error_rate", "ratio"},
	{"transport.overhead_ms_p50", "ms"},
	{"transport.overhead_ms_p99", "ms"},
	{"admission.refused", "count"},
	{"admission.refused_rate", "ratio"},
	{"scheduling.mean_batch", "count"},
	{"scheduling.batches", "count"},
	{"scheduling.wait_ms_p50", "ms"},
	{"scheduling.wait_ms_p99", "ms"},
	{"cache.compiles", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.disk_hits", "count"},
	{"compiler.baseline_ms", "ms"},
	{"compiler.aim_ms", "ms"},
	{"planstore.encode_ms", "ms"},
	{"planstore.put_ms", "ms"},
	{"planstore.decode_ms", "ms"},
	{"planstore.get_ms", "ms"},
	{"planstore.plan_bytes", "bytes"},
	{"core.execute_ms.analytic", "ms"},
	{"core.execute_ms.packed", "ms"},
	{"core.execute_ms.spatial", "ms"},
	{"sim.cycles_per_req", "cycles"},
	{"sim.cycles_per_host_s", "cycles/s"},
	{"pim.packed_rtog_ms", "ms"},
	{"irdrop.spatial_estimate_ms", "ms"},
	{"irdrop.solves_per_req", "count"},
	{"irdrop.skips_per_req", "count"},
	{"irdrop.skip_ratio", "ratio"},
	{"pdn.vcycles_per_solve", "count"},
	{"pdn.us_per_vcycle", "us"},
	{"pdn.saturated", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"trace.reconcile_pct", "%"},
	{"self_ms.loadgen", "ms"},
	{"self_ms.transport", "ms"},
	{"self_ms.serve", "ms"},
	{"self_ms.compiler", "ms"},
	{"self_ms.planstore", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.pim", "ms"},
	{"self_ms.irdrop", "ms"},
	{"self_ms.unattributed", "ms"},
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for plan stores and span files
	tr       *tracer

	values map[string]float64
	// tailP is the workload's fixed tail percentile, tailName its
	// human-readable metric name.
	tailP    float64
	tailName string

	attempted, failed int64
	violations        []string
	warnings          []string     // printed, but leave the run correct
	reqIDs            atomic.Int64 // numbers traced requests
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// violate records a correctness failure: the run exits 1.
func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// warn records a sanity check that failed without making an answer
// wrong: the run still exits 0.
func (r *run) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: http-analytic-open|spatial-closed|compile-restart")
	seed := fs.Int64("seed", 1, "workload seed: request order, arrival times and plan keys")
	seconds := fs.Float64("seconds", 20, "measured window per pass, in seconds")
	trace := fs.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	work := fs.String("work", ".bench_build/e2ebench-work", "scratch directory (plan stores, span files)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || math.IsNaN(*seconds) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload one of http-analytic-open|spatial-closed|compile-restart, --seconds > 0, --trace 0|1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: dir, tr: newTracer(*trace == 1), values: map[string]float64{},
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	if r.trace {
		spans := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := r.tr.write(spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "e2ebench: %d spans written to %s\n", len(r.tr.spans), spans)
	}
	return r.report(stdout, stderr)
}

// report prints every metric by name and unit, then the result line.
func (r *run) report(stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "== e2ebench %s seed %d (%.0fs per pass, trace %v) ==\n", r.workload, r.seed, r.seconds, r.trace)
	out := result{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	missing := false
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			v, ok := r.values[m.name]
			if !ok {
				continue
			}
			label := m.name
			if m.name == "latency_tail_ms" {
				label += " (" + r.tailName + ")"
			}
			fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", label, v, m.unit)
		}
	}
	for _, m := range specs {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s not measured\n", m.name)
			missing = true
			continue
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if missing {
		return 1
	}
	for _, w := range r.warnings {
		fmt.Fprintf(stdout, "  WARNING: %s\n", w)
		fmt.Fprintf(stderr, "e2ebench: warning: %s\n", w)
	}
	for _, v := range r.violations {
		fmt.Fprintf(stdout, "  WRONG: %s\n", v)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
