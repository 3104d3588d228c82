package engine

import (
	"sync"

	"transpimlib/internal/core"
)

// Spec identifies one cacheable configuration: a function compiled
// with normalized method parameters. It is the setup-cache key — two
// requests with the same Spec share tables, so only the first pays the
// Fig.-6 setup cost.
type Spec struct {
	Fn  core.Function
	Par core.Params
}

func makeSpec(fn core.Function, p core.Params) Spec {
	return Spec{Fn: fn, Par: p.Normalized()}
}

// tableCache memoizes operator sets per (Spec, shard). Tables must
// physically exist in each serving core's memory, so residency is
// tracked per shard; the host-side generation artifact is shared —
// the first shard pays generation + broadcast, later shards broadcast
// only. Entries are never evicted: PIM memories use a bump allocator
// (there is no free), so eviction could not reclaim the bank anyway.
// When a build outgrows the selected memory the error is reported to
// the requests that needed it.
type tableCache struct {
	mu      sync.Mutex
	entries map[Spec]*cacheEntry
}

type cacheEntry struct {
	mu        sync.Mutex
	generated bool // host-side table generation has run once
	shardOps  map[int][]*core.Operator
}

func newTableCache() *tableCache {
	return &tableCache{entries: make(map[Spec]*cacheEntry)}
}

// ensure returns the spec's operators for the shard, building them if
// absent. hit reports whether the tables were already resident;
// setupSeconds is the modeled setup charged by this call (generation
// plus broadcast on the first build, broadcast only for an extra
// shard, zero on a hit).
//
// ensure is called from a shard's goroutine, which owns the shard's
// cores and all their MRAM access, so loading tables into their
// memories is safe. The entry lock is held across the build:
// concurrent requests for the same spec on other shards wait for the
// generation artifact instead of regenerating it.
func (c *tableCache) ensure(spec Spec, s *shard) (ops []*core.Operator, hit bool, setupSeconds float64, err error) {
	c.mu.Lock()
	e, ok := c.entries[spec]
	if !ok {
		e = &cacheEntry{shardOps: make(map[int][]*core.Operator)}
		c.entries[spec] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if ops, ok := e.shardOps[s.id]; ok {
		return ops, true, 0, nil
	}
	set, err := core.BuildSet(spec.Fn, spec.Par, s.dpus)
	if err != nil {
		return nil, false, 0, err
	}
	ops = make([]*core.Operator, set.Len())
	for i := range ops {
		ops[i] = set.Op(i)
	}
	e.shardOps[s.id] = ops
	if e.generated {
		setupSeconds = set.TransferSeconds() // artifact reused: broadcast only
	} else {
		setupSeconds = set.SetupSeconds()
		e.generated = true
	}
	return ops, false, setupSeconds, nil
}

// size returns the number of cached specs.
func (c *tableCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// batchOps returns the operators serving b's spec on shard s (the
// cache hit/miss point). A plan hit proves the tables are resident on
// the shard, since cache entries are never dropped: no table-cache
// lock, no setup charge. A miss resolves the tables through the cache
// and records the plan.
func (e *Engine) batchOps(s *shard, b *batch) ([]*core.Operator, error) {
	if ops, ok := s.plans[b.spec]; ok {
		e.met.planHits.Inc()
		b.hit = true
		return ops, nil
	}
	e.met.planMisses.Inc()
	ops, hit, setup, err := e.cache.ensure(b.spec, s)
	e.met.cachedSpecs.Set(int64(e.cache.size()))
	if err != nil {
		return nil, err
	}
	b.hit, b.setup = hit, setup
	s.plans[b.spec] = ops
	return ops, nil
}
