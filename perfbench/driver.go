package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank
// before the benchmark reports it.
const minBeyond = 10

// failedLatency stands in for the latency of a failed op: a request
// that errors, is shed or returns wrong bits misses every latency
// limit.
const failedLatency = time.Duration(math.MaxInt64)

// caller is one closed-loop client. Its op sequence is a pure function
// of (seed, id, seq), so a seed reproduces every input choice however
// the callers interleave.
type caller struct {
	id   int
	seed uint64
	seq  uint64
	rec  *recorder // nil outside traced phases
}

// opID identifies the caller's current op in recorded spans.
func (c *caller) opID() uint64 { return uint64(c.id)<<40 | c.seq }

// draw returns the caller's pseudo-random choice for its current op.
func (c *caller) draw() uint64 { return mix(c.seed, uint64(c.id), c.seq) }

// mix hashes its arguments with splitmix64 steps.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v
		h += 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

func newCallers(n int, seed uint64) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = &caller{id: i, seed: seed}
	}
	return cs
}

// outcome is one completed op as its caller saw it.
type outcome struct {
	elems int           // elements verified
	lat   time.Duration // client-observed time of the program call
	inner time.Duration // lat minus the serving engine's RequestStats.Latency (0: n/a)
	key   int           // which of a fixed set of repeated ops this was (paper sweep)
	fail  bool
}

// sample is one op of a measured phase.
type sample struct {
	done  time.Duration // completion, since the phase started
	lat   time.Duration
	inner time.Duration
	elems int
	key   int
}

// phase is what one closed-loop run recorded.
type phase struct {
	wall      time.Duration
	samples   []sample // in completion order
	cpu       []cpuMark
	attempted int
	failed    int
}

// runPhase runs the callers in a closed loop for d: each caller issues
// its next op only after the previous one returned. hint pre-sizes
// each caller's sample buffer so appends do not allocate while timed.
func runPhase(callers []*caller, d time.Duration, op func(*caller) outcome, hint int) *phase {
	per := make([][]sample, len(callers))
	fails := make([]int, len(callers))
	start := time.Now()
	deadline := start.Add(d)
	stop, marks := make(chan struct{}), make(chan []cpuMark, 1)
	go func() { marks <- sampleCPU(start, stop) }()
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]sample, 0, hint)
			for time.Now().Before(deadline) {
				o := op(c)
				c.seq++
				if o.fail {
					fails[i]++
					o.lat, o.elems = failedLatency, 0
				}
				buf = append(buf, sample{done: time.Since(start), lat: o.lat, inner: o.inner, elems: o.elems, key: o.key})
			}
			per[i] = buf
		}()
	}
	wg.Wait()
	close(stop)
	ph := &phase{wall: time.Since(start), cpu: <-marks}
	for i, s := range per {
		ph.samples = append(ph.samples, s...)
		ph.attempted += len(s)
		ph.failed += fails[i]
	}
	sort.SliceStable(ph.samples, func(a, b int) bool { return ph.samples[a].done < ph.samples[b].done })
	return ph
}

// elems returns the verified elements the phase completed.
func (p *phase) elems() int {
	n := 0
	for _, s := range p.samples {
		n += s.elems
	}
	return n
}

// rate is elements per second over the whole phase.
func (p *phase) rate() float64 { return float64(p.elems()) / p.wall.Seconds() }

// percentile returns the nearest-rank p-quantile of sorted. It refuses
// (ok false) unless at least minBeyond samples lie beyond the rank.
func percentile(sorted []time.Duration, p float64) (v time.Duration, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedLat returns the latencies of samples, ascending.
func sortedLat(samples []sample, inner bool) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		switch {
		case !inner:
			out = append(out, s.lat)
		case s.lat != failedLatency:
			out = append(out, s.inner)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// timing is a phase's end-to-end timing figures.
type timing struct {
	rate     float64 // elements/s
	p50, p99 time.Duration
	note     string // how the figures were taken, with sample counts
}

// Serving workloads are timed over quiet blocks: blockOps consecutive
// ops each, the top quietFrac of them by CPU share.
const (
	blockOps  = 200
	quietFrac = 0.25
)

// quietBlocks times a serving workload. It cuts the samples, in
// completion order, into consecutive blocks of blockOps ops and ranks
// the blocks by the CPU time the process received per wall second. The
// kernel does not charge a process for time the host takes its virtual
// CPUs away, so on a shared machine the top-ranked blocks are the least
// disturbed. It pools the ops of the top quietFrac of blocks and
// reports their element rate over the blocks' summed duration, p50 and
// p99. Block k runs from the completion that ended block k-1 (the
// phase start for k=0) to its own last completion, so the blocks tile
// the phase.
func quietBlocks(p *phase) (timing, error) {
	n := len(p.samples) / blockOps
	type block struct {
		share float64
		dur   time.Duration
		ss    []sample
	}
	bl := make([]block, n)
	var from time.Duration
	for k := range bl {
		ss := p.samples[k*blockOps : (k+1)*blockOps]
		to := ss[len(ss)-1].done
		bl[k] = block{share: p.cpuShare(from, to), dur: to - from, ss: ss}
		from = to
	}
	sort.Slice(bl, func(i, j int) bool { return bl[i].share > bl[j].share })
	// On a slow host a quarter of the blocks may hold too few ops for a
	// p99 with minBeyond samples beyond it; take more blocks then.
	bl = bl[:min(n, max(int(math.Round(quietFrac*float64(n))), 100*minBeyond/blockOps))]
	var pool []sample
	var dur time.Duration
	el := 0
	for _, x := range bl {
		pool = append(pool, x.ss...)
		dur += x.dur
		for _, s := range x.ss {
			el += s.elems
		}
	}
	lat := sortedLat(pool, false)
	p50, ok50 := percentile(lat, 0.5)
	p99, ok99 := percentile(lat, 0.99)
	if !ok50 || !ok99 {
		return timing{}, fmt.Errorf("%d ops in the quiet blocks of %d completed are too few for a p99", len(lat), len(p.samples))
	}
	return timing{
		rate: float64(el) / dur.Seconds(), p50: p50, p99: p99,
		note: fmt.Sprintf("ops of the %d quietest of %d blocks of %d: n=%d, %d beyond p99",
			len(bl), n, blockOps, len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat))))),
	}, nil
}

// opMinima times the paper sweep, whose ops repeat identical work on
// identical inputs every pass: each op's fastest run stands for it,
// since interference from outside the process only ever adds time. It
// reports the rate, p50 and p99 of one pass made of those runs.
func opMinima(p *phase, keys int) (timing, error) {
	best := make([]time.Duration, keys)
	elems := 0
	for _, s := range p.samples {
		if s.lat != failedLatency && (best[s.key] == 0 || s.lat < best[s.key]) {
			if best[s.key] == 0 {
				elems += s.elems
			}
			best[s.key] = s.lat
		}
	}
	var total time.Duration
	for k, d := range best {
		if d == 0 {
			return timing{}, fmt.Errorf("op %d of %d never completed: the run is shorter than one pass", k, keys)
		}
		total += d
	}
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	p50, ok50 := percentile(best, 0.5)
	p99, ok99 := percentile(best, 0.99)
	if !ok50 || !ok99 {
		return timing{}, fmt.Errorf("%d ops per pass are too few for a p99", keys)
	}
	return timing{
		rate: float64(elems) / total.Seconds(), p50: p50, p99: p99,
		note: fmt.Sprintf("fastest of %d runs of each of %d ops, %d beyond p99", len(p.samples)/keys, keys, keys-int(math.Ceil(0.99*float64(keys)))),
	}, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// p50us is the median of durations, in microseconds.
func p50us(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// cpuMark is the process's CPU time at one instant of a phase.
type cpuMark struct {
	at, cpu time.Duration
}

// sampleCPU records the process's CPU time every cpuTick until stop
// is closed, and once more then. The kernel does not charge a process
// for time the host took its virtual CPUs away, so the CPU time the
// process received per wall second shows how disturbed a stretch of a
// run was.
func sampleCPU(start time.Time, stop <-chan struct{}) []cpuMark {
	t := time.NewTicker(cpuTick)
	defer t.Stop()
	ms := []cpuMark{{cpu: processCPU()}}
	for {
		select {
		case <-stop:
			return append(ms, cpuMark{at: time.Since(start), cpu: processCPU()})
		case <-t.C:
			ms = append(ms, cpuMark{at: time.Since(start), cpu: processCPU()})
		}
	}
}

const cpuTick = 5 * time.Millisecond

// processCPU is the process's user plus system CPU time. Getrusage on
// the calling process cannot fail short of a kernel fault; a zero then
// only makes the ranking of blocks arbitrary.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuShare is the CPU time the process received over [from, to] per
// wall second, interpolated between marks.
func (p *phase) cpuShare(from, to time.Duration) float64 {
	at := func(t time.Duration) float64 {
		ms := p.cpu
		i := sort.Search(len(ms), func(i int) bool { return ms[i].at >= t })
		switch {
		case len(ms) == 0:
			return 0
		case i == 0:
			return float64(ms[0].cpu)
		case i == len(ms):
			return float64(ms[len(ms)-1].cpu)
		}
		a, b := ms[i-1], ms[i]
		return float64(a.cpu) + float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at)
	}
	if to <= from {
		return 0
	}
	return (at(to) - at(from)) / float64(to-from)
}
