// Command aimcheck verifies the repository's persistent artifacts: the
// pin manifest (manifest/experiments.json, the single source of truth
// for every sha256-pinned table and irmap output) and plan-store
// directories. It prints one line per finding and exits 1 if anything
// is damaged, 0 on a pristine tree — the CI contract.
//
// The manifest's irmap pins are always re-derived (the render is
// sub-second); the experiment-table pins are re-derived only under
// -experiments, which regenerates all 22 tables (~tens of seconds).
// -write regenerates the manifest from the current code — the one
// sanctioned way to move a pin, so a pin change is always a reviewed
// manifest diff.
//
// Usage:
//
//	aimcheck [-manifest manifest/experiments.json] [-plan-cache-dir DIR]
//	         [-experiments] [-parallel N]
//	aimcheck -write [-manifest PATH] [-seed N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aim"
	"aim/internal/check"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: findings and the verdict go to
// stdout, progress and diagnostics to stderr; the return value is the
// process exit code (0 pristine, 1 findings or failures, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	manifest := fs.String("manifest", "manifest/experiments.json", "pin manifest to verify against (or write with -write)")
	planDir := fs.String("plan-cache-dir", "", "plan-store directory to verify (default: skip)")
	experiments := fs.Bool("experiments", false, "re-derive every experiment-table pin (regenerates all tables; slow)")
	parallel := fs.Int("parallel", 0, "experiment fan-out: 0 = one worker per CPU")
	write := fs.Bool("write", false, "regenerate the manifest from the current code instead of verifying")
	seed := fs.Int64("seed", 2025, "seed to render pins at when writing the manifest")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Every artifact is named by a flag: a positional argument would
	// otherwise be ignored and the run would report a false pass.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aimcheck: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *write {
		if *planDir != "" {
			fmt.Fprintln(stderr, "aimcheck: -write takes no -plan-cache-dir")
			return 2
		}
		return writeManifest(*manifest, *seed, *parallel, stderr)
	}

	m, err := check.LoadManifest(*manifest)
	if err != nil {
		fmt.Fprintf(stderr, "aimcheck: %v\n", err)
		return 1
	}
	findings := m.Findings()
	findings = append(findings, check.IRMap(m)...)
	fmt.Fprintf(stderr, "manifest: %d experiment pins + %d irmap pins (schema v%d, seed %d), irmap pins re-derived\n",
		len(m.Experiments), len(m.IRMap), m.SchemaVersion, m.Seed)
	if *experiments {
		fs, err := checkExperiments(m, *parallel, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "aimcheck: %v\n", err)
			return 1
		}
		findings = append(findings, fs...)
	}
	if *planDir != "" {
		entries, fs, err := check.PlanStore(*planDir)
		if err != nil {
			fmt.Fprintf(stderr, "aimcheck: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "planstore: %d entries verified, %d findings\n", entries, len(fs))
		findings = append(findings, fs...)
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "aimcheck: %d finding(s)\n", len(findings))
		return 1
	}
	fmt.Fprintln(stdout, "aimcheck: all artifacts verified")
	return 0
}

// checkExperiments regenerates every registry table at the manifest
// seed and compares the rendered bytes against the pins, both ways:
// a drifted table, a missing pin and a pin for a nonexistent
// experiment are all findings.
func checkExperiments(m *check.Manifest, parallel int, stderr io.Writer) ([]check.Finding, error) {
	results, err := runAll(m.Seed, parallel, stderr)
	if err != nil {
		return nil, err
	}
	var findings []check.Finding
	known := map[string]bool{}
	for _, r := range results {
		known[r.ID] = true
		pin, ok := m.Experiments[r.ID]
		if !ok {
			findings = append(findings, check.Finding{Area: "experiments", Path: r.ID, Problem: "no pin in manifest"})
			continue
		}
		if got := check.SHA256([]byte(r.Text)); got != pin {
			findings = append(findings, check.Finding{
				Area: "experiments", Path: r.ID,
				Problem: "recomputed sha256 " + got + " does not match pin " + pin,
			})
		}
	}
	// Pins for unknown experiments surface in sorted id order: the
	// findings are printed, and map iteration order must never reach
	// output (aimlint: no-map-range-render).
	unknown := make([]string, 0, len(m.Experiments))
	for id := range m.Experiments {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	sort.Strings(unknown)
	for _, id := range unknown {
		findings = append(findings, check.Finding{Area: "experiments", Path: id, Problem: "pin for unknown experiment"})
	}
	fmt.Fprintf(stderr, "experiments: %d tables re-derived\n", len(results))
	return findings, nil
}

// runAll regenerates every experiment table at seed.
func runAll(seed int64, parallel int, stderr io.Writer) ([]aim.ExperimentResult, error) {
	set := aim.ExperimentSet{
		Seed: seed, Parallel: parallel,
		Progress: func(id string, elapsed time.Duration) {
			fmt.Fprintf(stderr, "[%s re-derived in %v]\n", id, elapsed.Round(time.Millisecond))
		},
	}
	return aim.RunExperiments(context.Background(), set)
}

// writeManifest regenerates the pin manifest from the current code:
// every experiment table plus the irmap default outputs, rendered at
// seed and hashed.
func writeManifest(path string, seed int64, parallel int, stderr io.Writer) int {
	results, err := runAll(seed, parallel, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "aimcheck: %v\n", err)
		return 1
	}
	m := &check.Manifest{
		SchemaVersion: check.ManifestSchemaVersion,
		Seed:          seed,
		Experiments:   map[string]string{},
		IRMap:         map[string]string{},
	}
	for _, r := range results {
		m.Experiments[r.ID] = check.SHA256([]byte(r.Text))
	}
	m.IRMap = check.IRMapHashes(seed)
	data, err := m.Encode()
	if err != nil {
		fmt.Fprintf(stderr, "aimcheck: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintf(stderr, "aimcheck: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "aimcheck: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "aimcheck: wrote %s (%d experiment pins + %d irmap pins at seed %d)\n",
		path, len(m.Experiments), len(m.IRMap), seed)
	return 0
}
