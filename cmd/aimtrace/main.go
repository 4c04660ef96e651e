// Command aimtrace exports the per-cycle runtime traces behind the
// paper's Fig. 17 — worst-group IR-drop (mV), demanded chip current (A)
// and bump voltage (V) — as CSV for external plotting, for a workload
// before (DVFS) and after (full AIM) optimization.
//
// Usage:
//
//	aimtrace [-net resnet18] [-mode low-power] [-seed N] > traces.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/sim"
	"aim/internal/vf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes the CSV to
// stdout and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	netName := fs.String("net", "resnet18", "workload: resnet18|mobilenetv2|yolov5|vit|llama3|gpt2")
	mode := fs.String("mode", "low-power", "operating mode: sprint|low-power")
	seed := fs.Int64("seed", 2025, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var m vf.Mode
	switch strings.ToLower(*mode) {
	case "sprint":
		m = vf.Sprint
	case "low-power", "lowpower":
		m = vf.LowPower
	default:
		fmt.Fprintf(stderr, "aimtrace: unknown mode %q\n", *mode)
		return 2
	}
	// The seed drives both model generation and the runtime pipeline;
	// it must reach ByName, or -seed would silently leave the generated
	// model pinned while only the simulation noise changed.
	net, err := model.ByName(*netName, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "aimtrace: %v\n", err)
		return 1
	}
	p := core.NewPipeline(m)
	p.Seed = *seed
	// Traces are opt-in (sim.DefaultOptions records none): run each
	// stage with wave 0 traced.
	traced := func(s core.Stage) sim.Result {
		opt := p.SimOptions(s, net.Transformer)
		opt.TraceWave = 0
		return sim.Run(p.CompileStage(net, s), p.Chip, opt)
	}
	before := traced(core.StageBaseline)
	after := traced(core.StageBooster)

	n := len(before.DropTraceMV)
	if len(after.DropTraceMV) < n {
		n = len(after.DropTraceMV)
	}
	fmt.Fprintln(stdout, "cycle,drop_before_mV,drop_after_mV,current_before_A,current_after_A,bumpV_before,bumpV_after")
	for i := 0; i < n; i++ {
		fmt.Fprintf(stdout, "%d,%.3f,%.3f,%.5f,%.5f,%.5f,%.5f\n",
			i,
			before.DropTraceMV[i], after.DropTraceMV[i],
			before.CurrentTrace[i], after.CurrentTrace[i],
			before.VoltageTrace[i], after.VoltageTrace[i])
	}
	return 0
}
