// Package planstore is the persistent, content-addressed plan store:
// it serializes core.Plan to a versioned binary format and keeps the
// encoded artifacts in a storage Backend (a local directory). It holds
// no decoded plans of its own: every Get reads, checks and decodes its
// entry, and the caller — the serving runtime's plan cache — keeps the
// result in memory.
//
// Entries are addressed by the sha256 of everything the offline
// compiler consumes — network, mode, bits, δ, seed — plus
// CodeVersion, the compiler/simulator generation string. A process
// restart or a second fleet replica therefore finds the plans its
// predecessors compiled, turning a 24–32 ms AIM-stage compile of a
// served network (BenchmarkCompileStage) into a 0.15–0.23 ms read and
// decode of its whole plan (BenchmarkStoreGet; both on a 2-vCPU Xeon),
// while a code change that affects plan content simply makes every
// stale entry unreachable instead of silently serving wrong
// artifacts. An entry holds what Execute reads of the compiled plan:
// neither the float weights nor the weight codes compiled from them,
// which nothing after compile reads, so a decoded plan equals the
// compiled one except that its layers' Weights and its layer plans'
// Quant are nil. Everything else is bit-exact (floats round-trip as
// IEEE-754 bit patterns and aliased pointers are rebuilt from
// indices), so Execute over a loaded plan is byte-identical to
// Execute over a freshly compiled one. Corrupt, truncated or stale
// entries are counted, swept and treated as cache misses — the store
// degrades to "compile again", never to an error on the serving path.
package planstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"aim/internal/core"
)

// Key identifies one compiled plan: exactly the inputs the offline
// compile phase consumes (the serving runtime's cache key), never a
// runtime knob. The content hash additionally folds in CodeVersion, so
// one key denotes one plan *per compiler generation*.
type Key struct {
	// Network is the zoo workload name.
	Network string
	// Mode is the operating policy's string form.
	Mode string
	// Bits is the quantization width.
	Bits int
	// Delta is the canonical WDS δ (0 = disabled).
	Delta int
	// Seed drives every stochastic component of the compilation.
	Seed int64
}

// id is the canonical serialization of the key — the string that is
// hashed, and the string stored in the file header so an entry can
// vouch for what it holds.
func (k Key) id() string {
	return fmt.Sprintf("net=%s|mode=%s|bits=%d|delta=%d|seed=%d", k.Network, k.Mode, k.Bits, k.Delta, k.Seed)
}

// Hash returns the entry's content-addressed name: hex sha256 over the
// canonical key id and CodeVersion.
func (k Key) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "aim/planstore\n%s\n%s\n", CodeVersion, k.id())
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts the store's traffic since creation.
type Stats struct {
	// DiskHits answered by reading and decoding a backend entry;
	// Misses found nothing.
	DiskHits, Misses int64
	// Stale counts entries rejected for a format/code-version
	// mismatch, Corrupt those failing structural or integrity checks;
	// both are served as misses and removed from the backend.
	Stale, Corrupt int64
	// Saves counts successful writes; SaveErrors counts writes that
	// failed (the plan is still served from memory — persistence is
	// best-effort on the serving path).
	Saves, SaveErrors int64
}

// Store is the plan store: Get reads an entry from the backend,
// integrity-checks and decodes it, and reports a miss otherwise; Put
// encodes a plan and writes it to the backend. All methods are safe
// for concurrent use. The store intentionally keeps no decoded plans
// and has no compile-stampede control: both live with the caller (the
// serving runtime's singleflight cache), which asks the store at most
// once per key.
type Store struct {
	backend Backend
	stats   struct {
		diskHits, misses  atomic.Int64
		stale, corrupt    atomic.Int64
		saves, saveErrors atomic.Int64
	}
}

// Open opens a plan store over a local directory backend. Leftover
// temp files from a writer that died between temp-write and rename are
// swept here — at startup the store is quiescent, so anything matching
// the temp pattern is an orphan, never a live write. The sweep is best-effort: a failure to remove an
// orphan must not keep a serving replica from starting.
func Open(dir string) (*Store, error) {
	b, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	_, _ = b.SweepOrphans()
	return New(b), nil
}

// New builds a store over an arbitrary backend.
func New(b Backend) *Store {
	return &Store{backend: b}
}

// Get reads, checks and decodes the stored plan for k. A false return
// means "not stored" for any reason — absent, stale or corrupt — and
// the caller should compile; an entry that failed validation has
// already been removed so it is not re-read forever.
func (s *Store) Get(k Key) (*core.Plan, bool) {
	h := k.Hash()
	data, err := s.backend.Load(h)
	if err != nil {
		s.stats.misses.Add(1)
		return nil, false
	}
	p, err := Decode(k, data)
	if err != nil {
		// A bad entry is a miss, not a failure — but count it by
		// kind and sweep it so the next restart is not fooled again.
		if errors.Is(err, ErrStale) {
			s.stats.stale.Add(1)
		} else {
			s.stats.corrupt.Add(1)
		}
		_ = s.backend.Remove(h)
		s.stats.misses.Add(1)
		return nil, false
	}
	s.stats.diskHits.Add(1)
	return p, true
}

// Put encodes the plan and writes it to the backend. An encode
// failure is returned (the plan is inconsistent — a programming
// error); a backend write failure is only counted, because the caller
// holds a perfectly good in-memory plan and serving must not fail on a
// full disk.
func (s *Store) Put(k Key, p *core.Plan) error {
	data, err := Encode(k, p)
	if err != nil {
		return err
	}
	if err := s.backend.Store(k.Hash(), data); err != nil {
		s.stats.saveErrors.Add(1)
		return nil
	}
	s.stats.saves.Add(1)
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		DiskHits:   s.stats.diskHits.Load(),
		Misses:     s.stats.misses.Load(),
		Stale:      s.stats.stale.Load(),
		Corrupt:    s.stats.corrupt.Load(),
		Saves:      s.stats.saves.Load(),
		SaveErrors: s.stats.saveErrors.Load(),
	}
}
