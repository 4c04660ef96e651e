// Package serve is the compile-once/serve-many runtime (the paper's
// d-Matrix/Houmo serving scenario, §1/§6.8): a concurrency-safe plan
// cache keyed by everything the offline compiler consumes, an
// admission queue with a batch former grouping concurrent requests by
// plan, and an executor pool running compiled plans over warm
// simulator state. Repeated requests for one deployment point
// amortize the expensive offline phase (LHR proximal tuning, WDS,
// HR-aware mapping SA) to zero; per-request results are identical to a
// cold one-shot run.
package serve

import (
	"sync"
	"sync/atomic"

	"aim/internal/core"
	"aim/internal/planstore"
)

// entry is one singleflight cache slot.
type entry struct {
	once sync.Once
	plan *core.Plan
	err  error
}

// Cache is the shared, concurrency-safe plan cache. Lookups for a
// missing key compile exactly once no matter how many goroutines ask
// concurrently: late arrivals block on the winner's singleflight entry
// instead of stampeding the compiler. Failed compilations (unknown
// network) are cached too — the error is deterministic.
//
// Keys are planstore.Key: exactly the inputs the offline phase
// consumes. Runtime knobs (β, fidelity, worker counts, warm state) are
// deliberately absent — they vary per request without recompiling.
//
// The map is the only place plans are held in memory. With a
// persistent store attached it sits above the store's on-disk backend:
// the store is consulted once per key, inside the singleflight slot,
// so a fleet replica restarting against a warm disk pays one
// read+decode per key instead of one compile — and a corrupt or stale
// entry silently degrades to the compile path.
type Cache struct {
	mu       sync.Mutex
	entries  map[planstore.Key]*entry
	store    *planstore.Store
	compiles atomic.Int64
	hits     atomic.Int64
	diskHits atomic.Int64
}

// NewCache returns an empty cache backed by a persistent plan store;
// a nil store means no persistence.
func NewCache(store *planstore.Store) *Cache {
	return &Cache{entries: make(map[planstore.Key]*entry), store: store}
}

// Plan returns the plan for k, invoking compile at most once per key
// across all callers. hit reports whether the key was already present
// (compiled, loaded or in flight) when the call arrived.
func (c *Cache) Plan(k planstore.Key, compile func() (*core.Plan, error)) (plan *core.Plan, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if c.store != nil {
			if p, ok := c.store.Get(k); ok {
				c.diskHits.Add(1)
				e.plan = p
				return
			}
		}
		c.compiles.Add(1)
		e.plan, e.err = compile()
		if e.err == nil && c.store != nil {
			// Best-effort persistence: an encode failure would mean an
			// inconsistent plan, which the compiler cannot produce, and
			// a write failure is already counted by the store. Serving
			// proceeds from memory either way.
			_ = c.store.Put(k, e.plan)
		}
	})
	if ok {
		c.hits.Add(1)
	}
	return e.plan, ok, e.err
}

// Compiles returns how many compilations ran (one per distinct key).
func (c *Cache) Compiles() int64 { return c.compiles.Load() }

// Hits returns how many lookups found an existing entry.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// DiskHits returns how many singleflight slots were answered by the
// persistent store instead of the compiler.
func (c *Cache) DiskHits() int64 { return c.diskHits.Load() }

// Len returns the number of cached plans (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
