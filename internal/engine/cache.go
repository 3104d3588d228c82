package engine

import (
	"transpimlib/internal/core"
)

// Spec identifies one cacheable configuration: a function compiled
// with normalized method parameters. It keys each shard's plans and
// the engine's set of charged setups.
type Spec struct {
	Fn  core.Function
	Par core.Params
}

func makeSpec(fn core.Function, p core.Params) Spec {
	return Spec{Fn: fn, Par: p.Normalized()}
}

// specOps returns the spec's operators on shard s, one per core. A
// plan hit returns the shard's memo (shard.plans), the only record of
// which tables are resident on its cores; a miss builds the spec on
// every core of the shard and memoizes it. A Reference engine drops
// each operator's host kernel here, once, so every lane and recovery
// rung that evaluates the plan walks the interpreted kernel. Plans are
// never evicted: PIM memories use a bump allocator, so eviction could
// not reclaim the bank anyway. A failed build (say, tables outgrowing
// the selected memory) memoizes nothing and is reported to the batch
// that needed it. Only the holder of the shard's lock calls specOps,
// since it owns the cores' memories and the map.
//
// The charge rule follows the paper's setup model (Fig. 6, §2.1): a
// spec's tables are generated once on the host and broadcast in
// parallel to every bank, so the first successful build of a spec on
// the engine pays
//
//	generation + tableBytes × DPUs / Host→PIM bandwidth
//
// with DPUs the engine's whole core count, and every later build, on
// any shard, is free. An identical request stream is therefore charged
// identical setup whichever shards serve it. hit is false only for the
// call that paid the setup (a cache miss); setup is what it paid.
func (e *Engine) specOps(s *shard, spec Spec) (ops []*core.Operator, hit bool, setup float64, err error) {
	if ops, ok := s.plans[spec]; ok {
		return ops, true, 0, nil
	}
	ops = make([]*core.Operator, len(s.dpus))
	for i, d := range s.dpus {
		if ops[i], err = core.Build(spec.Fn, spec.Par, d); err != nil {
			return nil, false, 0, err
		}
		if e.cfg.Reference {
			ops[i].DisableFastPath()
		}
	}
	s.plans[spec] = ops

	e.chargedMu.Lock()
	defer e.chargedMu.Unlock()
	if _, ok := e.charged[spec]; ok {
		return ops, true, 0, nil
	}
	e.charged[spec] = struct{}{}
	e.met.cachedSpecs.Set(int64(len(e.charged)))
	op := ops[0]
	setup = op.BuildSeconds() + float64(op.TableBytes())*float64(e.cfg.DPUs)/e.sys.Config().HostToPIMBandwidth
	return ops, false, setup, nil
}

// batchOps resolves b's spec on shard s (the cache hit/miss point),
// counting one plan hit or miss per batch.
func (e *Engine) batchOps(s *shard, b *batch) ([]*core.Operator, error) {
	if ops, ok := s.plans[b.spec]; ok {
		e.met.planHits.Inc()
		b.hit = true
		return ops, nil
	}
	e.met.planMisses.Inc()
	ops, hit, setup, err := e.specOps(s, b.spec)
	if err != nil {
		return nil, err
	}
	b.hit, b.setup = hit, setup
	return ops, nil
}
