package planstore

import (
	"container/list"
	"sync"

	"aim/internal/compiler"
	"aim/internal/core"
)

// lru is the in-memory tier of the two-tier cache: decoded plans keyed
// by their content hash, evicted least-recently-used once the byte
// budget is exceeded (an entry's cost is its decoded footprint, see
// footprint). A single over-budget plan is still admitted alone:
// the memory tier must never refuse the plan a server is actively
// serving.
type lru struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	order     *list.List // front = most recent; values are *lruEntry
	entries   map[string]*list.Element
	evictions int64
}

type lruEntry struct {
	hash string
	plan *core.Plan
	cost int64
}

// newLRU returns an empty cache with the given byte budget.
func newLRU(budget int64) *lru {
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	return &lru{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached plan and marks it most recently used.
func (c *lru) get(hash string) (*core.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).plan, true
}

// add inserts (or refreshes) a plan and evicts from the cold end until
// the budget holds again. Entries are immutable, so re-adding an
// existing hash only refreshes recency.
func (c *lru) add(hash string, plan *core.Plan) {
	cost := footprint(plan)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&lruEntry{hash: hash, plan: plan, cost: cost})
	c.used += cost
	for c.used > c.budget && c.order.Len() > 1 {
		el := c.order.Back()
		e := el.Value.(*lruEntry)
		c.order.Remove(el)
		delete(c.entries, e.hash)
		c.used -= e.cost
		c.evictions++
	}
}

// len returns the number of cached plans.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// footprint is what the memory tier charges for a plan: the bytes of
// its decoded weight and code tensors, the bulk of a decoded plan. A
// network the store shares between plans is charged to each of them,
// which over-counts in the safe direction.
func footprint(p *core.Plan) int64 {
	var n int64
	for _, l := range p.Net.Layers {
		if l.Weights != nil {
			n += 8 * int64(len(l.Weights.Data))
		}
	}
	for _, c := range []*compiler.Compiled{p.Baseline, p.AIM} {
		for _, lp := range c.Plans {
			if lp.Quant != nil && lp.Quant.Codes != nil {
				n += 4 * int64(len(lp.Quant.Codes.Data))
			}
		}
	}
	return n
}
