package planstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNotFound is returned by Backend.Load when no entry exists under
// the given name. Callers treat it as a cache miss, never a failure.
var ErrNotFound = errors.New("planstore: entry not found")

// Backend is the storage layer under the plan store: a flat namespace
// of immutable blobs addressed by their content-hash name. It declares
// only the operations a *Store calls.
//
// Entries are content-addressed and therefore immutable: a Store never
// rewrites a name with different bytes, so backends may cache
// aggressively and Store may be implemented as "write if absent".
type Backend interface {
	// Load returns the blob stored under name, or ErrNotFound.
	Load(name string) ([]byte, error)
	// Store writes the blob under name. It need not be durable: an
	// entry torn by a crash fails the codec's integrity check and
	// reads as a miss. Writing a name that already exists is allowed
	// and must leave either the old or the new bytes intact (they are
	// identical by content addressing).
	Store(name string, data []byte) error
	// Remove deletes the entry; removing a missing name is not an
	// error (eviction races are benign).
	Remove(name string) error
}

// Dir is the local-directory backend: one file per plan at
// <root>/<name[:2]>/<name>, the two-hex-character fanout restic uses
// so a large store never piles thousands of entries into one
// directory. Writes go through a temp file in the same directory and
// an atomic rename, so a crash mid-write can never leave a truncated
// entry under a valid name — concurrent writers of the same name both
// win (the bytes are identical).
type Dir struct {
	root string
}

// OpenDir opens (creating if needed) a local-directory backend.
func OpenDir(root string) (*Dir, error) {
	if root == "" {
		return nil, errors.New("planstore: empty cache directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: create cache dir: %w", err)
	}
	return &Dir{root: root}, nil
}

// path maps a name to its fanout location.
func (d *Dir) path(name string) string {
	if len(name) < 2 {
		return filepath.Join(d.root, name)
	}
	return filepath.Join(d.root, name[:2], name)
}

// Load implements Backend.
func (d *Dir) Load(name string) ([]byte, error) {
	data, err := os.ReadFile(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// Store implements Backend: temp file + rename in the entry's fanout
// directory, fsync-free by design (a torn entry fails the codec's
// integrity hash and is treated as a miss, so durability is a
// performance trade, not a correctness one).
func (d *Dir) Store(name string, data []byte) error {
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("planstore: write %s: %w", name, werr)
		}
		return fmt.Errorf("planstore: close %s: %w", name, cerr)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("planstore: publish %s: %w", name, err)
	}
	return nil
}

// Remove implements Backend.
func (d *Dir) Remove(name string) error {
	err := os.Remove(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Orphans returns the leftover temp files of writers that died between
// temp-write and rename, as paths relative to the root. A live writer's
// temp file is indistinguishable from an orphan, so callers decide when
// the store is quiescent enough to judge (Open sweeps at startup; the
// checker reports what it finds).
func (d *Dir) Orphans() ([]string, error) {
	var orphans []string
	err := filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		if strings.HasPrefix(e.Name(), "tmp-") {
			rel, rerr := filepath.Rel(d.root, path)
			if rerr != nil {
				rel = path
			}
			orphans = append(orphans, rel)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("planstore: orphans: %w", err)
	}
	sort.Strings(orphans)
	return orphans, nil
}

// SweepOrphans removes leftover temp files, returning how many were
// removed. Racing a concurrent writer is benign: the loser's rename
// fails, which the store already counts as a best-effort save error.
func (d *Dir) SweepOrphans() (int, error) {
	orphans, err := d.Orphans()
	if err != nil {
		return 0, err
	}
	swept := 0
	for _, rel := range orphans {
		if err := os.Remove(filepath.Join(d.root, rel)); err == nil {
			swept++
		}
	}
	return swept, nil
}

// List returns every stored name in lexical order: each regular file
// in the fanout tree whose name is not a leftover temp file.
func (d *Dir) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		if name := e.Name(); !strings.HasPrefix(name, "tmp-") {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("planstore: list: %w", err)
	}
	sort.Strings(names)
	return names, nil
}
