// Package telemetry is the observability layer of the serving stack:
// a lock-cheap metrics registry (atomic counters, gauges and
// fixed-bucket histograms with Prometheus text exposition),
// request-scoped trace spans with both wall-clock and modeled-seconds
// durations (exportable as JSON and as a Chrome trace_event file),
// and the aggregation types behind the pimsim per-DPU launch
// profiles.
//
// The paper's evaluation lives on breakdowns — setup vs. kernel
// cycles (Fig. 6 vs. Fig. 5), per-method cycle decompositions
// (Fig. 7), per-stage workload timings (Fig. 9) — and this package is
// how a live engine exposes the same decomposition per request and
// per shard instead of as a single aggregate.
//
// Hot-path discipline: every mutation (Counter.Add, Gauge.Set,
// Histogram.Observe) is one or two atomic operations, no locks and no
// allocation; registry locks are taken only at registration and
// exposition time. Optional subsystems (tracing, kernel profiling)
// hang off nil-able handles so the disabled path is a single nil
// check.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; all methods are safe for concurrent use and nil-safe
// (a nil Counter ignores writes and reads zero), so callers holding a
// disabled telemetry handle can skip their own guards.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64 accumulator for
// modeled-seconds totals. Add is a CAS loop on the raw bits — still
// lock-free, a handful of cycles under contention.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v.
func (f *FloatCounter) Add(v float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated value.
func (f *FloatCounter) Load() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// Gauge is a settable int64 value (queue depths, resident specs).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Exemplar is one concrete observation attached to a histogram
// bucket: the observed value plus a short label block identifying it
// (trace id, input bits, …). Exemplar storage is bounded — one per
// bucket, holding the worst (largest) value the bucket has seen, with
// ties going to the most recent observation ("last-worst").
type Exemplar struct {
	Value  float64 `json:"value"`
	Labels string  `json:"labels,omitempty"` // e.g. `trace_id="7",x="0x40490fdb"`
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: Observe finds the first upper bound ≥ v with a linear scan
// (bucket counts are small and fixed at construction) and bumps one
// atomic counter, plus the atomic sum and count.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sum    FloatCounter
	count  Counter

	// exemplars is allocated lazily on the first ObserveExemplar; a
	// histogram that never sees exemplars pays one nil pointer load.
	exemplars atomic.Pointer[exemplarSet]
}

type exemplarSet struct {
	slots []atomic.Pointer[Exemplar] // len(bounds)+1, parallel to counts
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. An empty bounds slice yields a single +Inf bucket
// (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Inc()
}

func (h *Histogram) bucketOf(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// ObserveExemplar records one value and attaches an exemplar to its
// bucket when the value is at least as large as the bucket's current
// exemplar (last-worst retention, one exemplar per bucket — bounded
// storage no matter how many observations arrive). labels builds the
// exemplar's label block; it is called only when the exemplar will be
// stored, so an observation that does not displace the bucket's worst
// formats and allocates nothing. The replacement is a CAS loop on the
// bucket's slot; a lost race means a concurrent writer installed an
// exemplar at least as bad, which satisfies the retention contract.
func (h *Histogram) ObserveExemplar(v float64, labels func() string) {
	if h == nil {
		return
	}
	i := h.bucketOf(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Inc()

	set := h.exemplars.Load()
	if set == nil {
		fresh := &exemplarSet{slots: make([]atomic.Pointer[Exemplar], len(h.counts))}
		if !h.exemplars.CompareAndSwap(nil, fresh) {
			set = h.exemplars.Load()
		} else {
			set = fresh
		}
	}
	var ex *Exemplar
	for {
		cur := set.slots[i].Load()
		if cur != nil && cur.Value > v {
			return
		}
		if ex == nil {
			ex = &Exemplar{Value: v, Labels: labels()}
		}
		if set.slots[i].CompareAndSwap(cur, ex) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds (the +Inf bucket is implied)
	Counts []uint64  // per-bucket counts, len(Bounds)+1
	Sum    float64
	Count  uint64
	// Exemplars holds each bucket's retained worst observation;
	// len(Bounds)+1 entries, nil where the bucket has none. Nil when
	// the histogram never saw ObserveExemplar.
	Exemplars []*Exemplar
}

// Snapshot copies the histogram's current state. Individual bucket
// loads are atomic; the snapshot as a whole is not a consistent cut
// under concurrent writes, which is the standard metrics contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if set := h.exemplars.Load(); set != nil {
		s.Exemplars = make([]*Exemplar, len(set.slots))
		for i := range set.slots {
			if ex := set.slots[i].Load(); ex != nil {
				cp := *ex
				s.Exemplars[i] = &cp
			}
		}
	}
	return s
}

// LatencyBuckets is the default request-latency bucket ladder in
// seconds: 10 µs … 10 s, roughly ×3 steps.
func LatencyBuckets() []float64 {
	return []float64{10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1, 3, 10}
}

// SizeBuckets is the default batch/request element-count ladder.
func SizeBuckets() []float64 {
	return []float64{16, 64, 256, 1024, 4096, 16384, 65536}
}
