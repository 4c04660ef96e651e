// Package check is the integrity checker behind cmd/aimcheck: it
// verifies the repository's persistent artifacts after the fact —
// plan-store directories (envelope, content address, decode
// round-trip) and the pin manifest that is the single source of truth
// for every sha256-pinned experiment table and irmap output. Each
// verifier returns Findings rather than errors: a finding is a fact
// about a damaged artifact, and a run with zero findings is the
// machine-checkable definition of "pristine".
package check

import (
	"crypto/sha256"
	"fmt"
)

// Finding is one verified defect: which artifact, where, and what is
// wrong with it. Findings are facts, not failures — the checker keeps
// going after each one so a single run reports everything.
type Finding struct {
	// Area names the verifier ("planstore", "manifest", "irmap",
	// "experiments").
	Area string
	// Path locates the artifact: a file path, a store entry name, or a
	// manifest pin id.
	Path string
	// Problem says what is wrong, in one line.
	Problem string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Area, f.Path, f.Problem)
}

// SHA256 is the pin hash every artifact uses: hex sha256 over the
// exact rendered bytes.
func SHA256(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}
