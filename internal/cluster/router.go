package cluster

import (
	"sort"

	"transpimlib/internal/core"
)

// The router places (function, method, tenant) keys on replicas with
// consistent hashing: each replica owns virtualNodes points on a
// 64-bit ring, a key hashes to a point, and the key's candidate set
// is the next Replication distinct replicas clockwise. Placement then
// prefers the primary (first candidate) and falls back to the
// least-loaded healthy candidate when the primary is quarantined or
// its backlog exceeds MaxQueue. Everything is a pure function of the
// seed, the key, the health set, and the observed loads — the
// determinism the router tests pin.

// maxReplication caps a key's candidate-set size so placement can use
// fixed-size stack scratch and stay allocation-free on the hot path.
const maxReplication = 16

// splitmix64 is the same finalizer faultsim builds decisions from: a
// bijective avalanche over 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyHash folds a placement key — the normalized method parameters,
// the function, and the tenant — into one ring coordinate. It
// allocates nothing: the tenant string is hashed byte-wise.
func keyHash(seed uint64, fn core.Function, p core.Params, tenant string) uint64 {
	h := splitmix64(seed ^ 0xC1A5)
	h = splitmix64(h ^ uint64(fn))
	h = splitmix64(h ^ uint64(p.Method))
	var flags uint64
	if p.Interp {
		flags |= 1
	}
	if p.WideRange {
		flags |= 2
	}
	h = splitmix64(h ^ flags)
	h = splitmix64(h ^ uint64(p.SizeLog2)<<32 ^ uint64(p.Iterations))
	h = splitmix64(h ^ uint64(p.HeadBits)<<32 ^ uint64(p.Degree))
	h = splitmix64(h ^ uint64(p.Placement))
	for i := 0; i < len(tenant); i++ {
		h = splitmix64(h ^ uint64(tenant[i]))
	}
	return h
}

// ringPoint is one virtual node: a hash coordinate owned by a replica.
type ringPoint struct {
	hash    uint64
	replica int
}

// ring is the consistent-hash ring, immutable after construction.
type ring struct {
	points   []ringPoint
	replicas int
}

func newRing(replicas, virtualNodes int, seed uint64) *ring {
	r := &ring{replicas: replicas}
	r.points = make([]ringPoint, 0, replicas*virtualNodes)
	for rep := 0; rep < replicas; rep++ {
		for v := 0; v < virtualNodes; v++ {
			h := splitmix64(splitmix64(seed^uint64(rep)<<20) ^ uint64(v))
			r.points = append(r.points, ringPoint{hash: h, replica: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.replica < b.replica
	})
	return r
}

// candidates fills dst with the first k distinct replicas clockwise
// from h — the key's replica set, primary first — and returns the
// filled prefix. dst must have room for k entries.
func (r *ring) candidates(h uint64, k int, dst []int) []int {
	dst = dst[:0]
	if k > r.replicas {
		k = r.replicas
	}
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // replica bitset; replicas ≤ 64 by config validation
	for i := 0; i < n && len(dst) < k; i++ {
		p := r.points[(start+i)%n]
		if seen&(1<<uint(p.replica)) != 0 {
			continue
		}
		seen |= 1 << uint(p.replica)
		dst = append(dst, p.replica)
	}
	return dst
}

// placement is one routing decision, recorded for the determinism
// tests and surfaced (aggregated) through the cluster metrics.
type placement struct {
	Seq     uint64
	Key     uint64
	Primary int
	Replica int  // chosen replica; -1 when shed
	Shed    bool // true when every candidate was over MaxQueue
	Spilled bool // chosen replica is not the primary
}

// place picks a replica for key hash h at sequence seq. loads must
// report each replica's current backlog; avail each replica's health.
// Decision order:
//
//  1. primary, when healthy and under MaxQueue;
//  2. the least-loaded healthy candidate under MaxQueue (ties to the
//     lowest replica index);
//  3. when no candidate is healthy: the least-loaded healthy replica
//     outside the set (failover placement — the replica builds the
//     tables itself, paying the spec's setup once);
//  4. when no replica anywhere is healthy: the primary regardless —
//     each engine still has its own recovery ladder and host-mirror
//     last rung, which beats refusing outright;
//  5. shed (replica -1) only when healthy candidates exist but all
//     are over MaxQueue — the backlog form of load shedding.
//
// tried is a bitset of replicas that already failed this request
// (failover); they are skipped everywhere.
func (c *Cluster) place(h uint64, seq uint64, tried uint64) placement {
	var scratch [maxReplication]int
	cands := c.ring.candidates(h, c.cfg.Replication, scratch[:0])
	pl := placement{Seq: seq, Key: h, Primary: cands[0], Replica: -1}

	best, bestLoad := -1, 0
	anyHealthy := false
	for i, rep := range cands {
		if tried&(1<<uint(rep)) != 0 || !c.health.Available(rep, seq) {
			continue
		}
		anyHealthy = true
		load := c.execs[rep].QueueDepth()
		c.met.replicaQueue[rep].Set(int64(load))
		if c.cfg.MaxQueue > 0 && load >= c.cfg.MaxQueue {
			continue
		}
		if i == 0 {
			// Healthy primary under the backlog bound: done.
			pl.Replica = rep
			return pl
		}
		if best == -1 || load < bestLoad || (load == bestLoad && rep < best) {
			best, bestLoad = rep, load
		}
	}
	if best >= 0 {
		pl.Replica, pl.Spilled = best, true
		return pl
	}
	if anyHealthy {
		// Healthy candidates exist but every one is over MaxQueue.
		pl.Shed = true
		return pl
	}
	// The whole candidate set is quarantined: fail over to the
	// least-loaded healthy replica outside it.
	for rep := 0; rep < len(c.execs); rep++ {
		if tried&(1<<uint(rep)) != 0 || !c.health.Available(rep, seq) {
			continue
		}
		load := c.execs[rep].QueueDepth()
		if best == -1 || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	if best >= 0 {
		pl.Replica, pl.Spilled = best, true
		return pl
	}
	// Nothing is healthy anywhere: serve on the primary anyway (rung
	// 4) — unless it already failed this request, in which case walk
	// the untried replicas and finally give up (Replica stays -1).
	if tried&(1<<uint(cands[0])) == 0 {
		pl.Replica = cands[0]
		return pl
	}
	for rep := 0; rep < len(c.execs); rep++ {
		if tried&(1<<uint(rep)) == 0 {
			pl.Replica = rep
			return pl
		}
	}
	return pl
}
