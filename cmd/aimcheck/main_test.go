package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/planstore"
	"aim/internal/vf"
)

// repoManifest is the real pin manifest, relative to this package.
const repoManifest = "../../manifest/experiments.json"

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// planDir populates a fresh plan-store directory with one real entry
// and returns the directory and the entry's on-disk path.
func planDir(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := planstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := planstore.Key{Network: "resnet18", Mode: vf.LowPower.String(), Bits: 8, Delta: 16, Seed: 1}
	net, err := model.ByName(k.Network, 2025)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(vf.LowPower)
	p.Seed = k.Seed
	if err := s.Put(k, p.Compile(net)); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	return dir, filepath.Join(dir, h[:2], h)
}

func TestFlagHandling(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"help", []string{"-h"}, 0},
		{"positional argument", []string{"bench_x.json"}, 2},
		{"write with positional", []string{"-write", "x"}, 2},
		{"write with plan dir", []string{"-write", "-plan-cache-dir", "/tmp/x"}, 2},
		{"missing manifest", []string{"-manifest", "/nonexistent/experiments.json"}, 1},
	}
	for _, c := range cases {
		code, _, stderr := runCapture(t, c.args...)
		if code != c.code {
			t.Errorf("%s: exit = %d, want %d (stderr %q)", c.name, code, c.code, stderr)
		}
	}
}

// TestPristineTreeExitsZero: the CI contract — manifest + populated
// plan store, both pristine, exit 0.
func TestPristineTreeExitsZero(t *testing.T) {
	dir, _ := planDir(t)
	code, stdout, stderr := runCapture(t, "-manifest", repoManifest, "-plan-cache-dir", dir)
	if code != 0 {
		t.Fatalf("exit = %d on a pristine tree\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all artifacts verified") {
		t.Fatalf("missing verdict: %q", stdout)
	}
}

// TestCorruptionClassesExitOne: each acceptance-criteria corruption
// class must flip the exit code to 1 and print a finding naming it.
func TestCorruptionClassesExitOne(t *testing.T) {
	t.Run("bit-flipped plan entry", func(t *testing.T) {
		dir, path := planDir(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x80
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, _ := runCapture(t, "-manifest", repoManifest, "-plan-cache-dir", dir)
		if code != 1 || !strings.Contains(stdout, "does not decode") {
			t.Fatalf("exit = %d, stdout = %q", code, stdout)
		}
	})
	t.Run("truncated plan entry", func(t *testing.T) {
		dir, path := planDir(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, _ := runCapture(t, "-manifest", repoManifest, "-plan-cache-dir", dir)
		if code != 1 || !strings.Contains(stdout, "does not decode") {
			t.Fatalf("exit = %d, stdout = %q", code, stdout)
		}
	})
	t.Run("orphaned temp file", func(t *testing.T) {
		dir, path := planDir(t)
		orphan := filepath.Join(filepath.Dir(path), "tmp-"+filepath.Base(path)+"-7")
		if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, _ := runCapture(t, "-manifest", repoManifest, "-plan-cache-dir", dir)
		if code != 1 || !strings.Contains(stdout, "orphaned temp file") {
			t.Fatalf("exit = %d, stdout = %q", code, stdout)
		}
	})
	t.Run("tampered manifest hash", func(t *testing.T) {
		data, err := os.ReadFile(repoManifest)
		if err != nil {
			t.Fatal(err)
		}
		// Zero out the ascii irmap pin: still hex-shaped, so only the
		// re-derivation can catch it.
		m := string(data)
		start := strings.Index(m, `"ascii": "`) + len(`"ascii": "`)
		tampered := m[:start] + strings.Repeat("0", 64) + m[start+64:]
		path := filepath.Join(t.TempDir(), "experiments.json")
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, _ := runCapture(t, "-manifest", path)
		if code != 1 || !strings.Contains(stdout, "does not match pin") {
			t.Fatalf("exit = %d, stdout = %q", code, stdout)
		}
	})
}
