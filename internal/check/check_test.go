package check

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/planstore"
	"aim/internal/vf"
)

// encodedPlan compiles and encodes the reference plan once per test
// binary (compilation dominates the package's test time otherwise).
var encodedPlan = struct {
	key  planstore.Key
	data []byte
}{}

func testEntry(t *testing.T) (planstore.Key, []byte) {
	t.Helper()
	if encodedPlan.data == nil {
		k := planstore.Key{Network: "resnet18", Mode: vf.LowPower.String(), Bits: 8, Delta: 16, Seed: 1}
		net, err := model.ByName(k.Network, 2025)
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPipeline(vf.LowPower)
		p.Seed = k.Seed
		data, err := planstore.Encode(k, p.Compile(net))
		if err != nil {
			t.Fatal(err)
		}
		encodedPlan.key, encodedPlan.data = k, data
	}
	return encodedPlan.key, append([]byte(nil), encodedPlan.data...)
}

// populate writes one pristine entry into a fresh store directory and
// returns its directory, name, and on-disk path.
func populate(t *testing.T) (dir, name, path string) {
	t.Helper()
	dir = t.TempDir()
	k, data := testEntry(t)
	b, err := planstore.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	name = k.Hash()
	if err := b.Store(name, data); err != nil {
		t.Fatal(err)
	}
	return dir, name, filepath.Join(dir, name[:2], name)
}

func TestPlanStorePristine(t *testing.T) {
	dir, _, _ := populate(t)
	entries, fs, err := PlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 || len(fs) != 0 {
		t.Fatalf("entries = %d, findings = %v; want 1 pristine entry", entries, fs)
	}
}

// TestPlanStoreCorruptionClasses plants one instance of every damage
// class the checker must catch and asserts each yields exactly one
// finding naming the right problem.
func TestPlanStoreCorruptionClasses(t *testing.T) {
	cases := []struct {
		name    string
		plant   func(t *testing.T, dir, entry, path string)
		problem string
	}{
		{"bit flip", func(t *testing.T, dir, entry, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "does not decode"},
		{"truncation", func(t *testing.T, dir, entry, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "does not decode"},
		{"stale code version", func(t *testing.T, dir, entry, path string) {
			// A full envelope as an older compiler generation would have
			// written it: magic, version, old code version, key id, and a
			// declared (empty) payload.
			env := []byte("AIMPLAN1")
			env = binary.LittleEndian.AppendUint32(env, planstore.FormatVersion)
			for _, s := range []string{"aim-plan-0-ancient", "net=resnet18|mode=low-power|bits=8|delta=16|seed=1"} {
				env = binary.LittleEndian.AppendUint64(env, uint64(len(s)))
				env = append(env, s...)
			}
			env = binary.LittleEndian.AppendUint64(env, 0)
			if err := os.WriteFile(path, env, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "stale"},
		{"bad magic", func(t *testing.T, dir, entry, path string) {
			if err := os.WriteFile(path, []byte("NOTAPLAN-at-all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt envelope"},
		{"orphaned temp file", func(t *testing.T, dir, entry, path string) {
			orphan := filepath.Join(filepath.Dir(path), "tmp-"+entry+"-42")
			if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "orphaned temp file"},
		{"misplaced entry", func(t *testing.T, dir, entry, path string) {
			// Valid bytes filed under a name their key does not hash to.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wrong := strings.Repeat("ab", 32)
			if err := os.MkdirAll(filepath.Join(dir, wrong[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, wrong[:2], wrong), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, "misplaced"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir, entry, path := populate(t)
			c.plant(t, dir, entry, path)
			_, fs, err := PlanStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(fs) != 1 {
				t.Fatalf("findings = %v, want exactly 1", fs)
			}
			if !strings.Contains(fs[0].Problem, c.problem) {
				t.Fatalf("finding %q does not name %q", fs[0], c.problem)
			}
		})
	}
}

func TestManifestFindings(t *testing.T) {
	good := &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Seed:          2025,
		Experiments:   map[string]string{"fig3": strings.Repeat("ab", 32)},
		IRMap:         map[string]string{"ascii": strings.Repeat("01", 32), "csv": strings.Repeat("23", 32)},
	}
	if fs := good.Findings(); len(fs) != 0 {
		t.Fatalf("structurally valid manifest has findings: %v", fs)
	}
	cases := []struct {
		name    string
		mutate  func(m *Manifest)
		problem string
	}{
		{"wrong schema version", func(m *Manifest) { m.SchemaVersion = 99 }, "want 1"},
		{"zero seed", func(m *Manifest) { m.Seed = 0 }, "non-positive seed"},
		{"no experiment pins", func(m *Manifest) { m.Experiments = nil }, "no experiment pins"},
		{"missing irmap pin", func(m *Manifest) { delete(m.IRMap, "csv") }, "missing pin"},
		{"short pin", func(m *Manifest) { m.Experiments["fig3"] = "abc123" }, "64 lowercase hex"},
		{"uppercase pin", func(m *Manifest) { m.IRMap["ascii"] = strings.Repeat("AB", 32) }, "64 lowercase hex"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := &Manifest{
				SchemaVersion: good.SchemaVersion,
				Seed:          good.Seed,
				Experiments:   map[string]string{"fig3": good.Experiments["fig3"]},
				IRMap:         map[string]string{"ascii": good.IRMap["ascii"], "csv": good.IRMap["csv"]},
			}
			c.mutate(m)
			fs := m.Findings()
			if len(fs) == 0 {
				t.Fatal("no findings")
			}
			if !strings.Contains(fs[0].Problem, c.problem) {
				t.Fatalf("finding %q does not name %q", fs[0], c.problem)
			}
		})
	}
}

func TestManifestEncodeLoadRoundTrip(t *testing.T) {
	m := &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Seed:          2025,
		Experiments:   map[string]string{"fig3": strings.Repeat("ab", 32)},
		IRMap:         map[string]string{"ascii": strings.Repeat("01", 32), "csv": strings.Repeat("23", 32)},
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "experiments.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("encode → load → encode is not byte-stable")
	}
}

// TestIRMapTamperDetected: the irmap pins are re-derived, so a
// tampered pin can never pass — and pristine pins always do.
func TestIRMapTamperDetected(t *testing.T) {
	m := &Manifest{Seed: 3, IRMap: IRMapHashes(3)}
	if fs := IRMap(m); len(fs) != 0 {
		t.Fatalf("pristine pins yielded findings: %v", fs)
	}
	tampered := []byte(m.IRMap["ascii"])
	if tampered[0] == '0' {
		tampered[0] = '1'
	} else {
		tampered[0] = '0'
	}
	m.IRMap["ascii"] = string(tampered)
	fs := IRMap(m)
	if len(fs) != 1 || !strings.Contains(fs[0].Problem, "does not match pin") {
		t.Fatalf("tampered ascii pin: findings = %v, want 1 mismatch", fs)
	}
}
