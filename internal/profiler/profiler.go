// Package profiler is the continuous modeled-cycle profiler: it
// consumes pimsim's per-launch lane records and attributes every
// modeled kernel cycle to a stack of (tenant, function, method,
// pipeline stage / fused-program phase, instruction class) — the
// paper's Fig.-7 per-method cycle breakdowns (mul vs. shift vs. load
// vs. branch), captured live, per tenant, on a serving system.
//
// Attribution is exact by construction. The engine hands each launch
// over with its wall cycles (the slowest lane's closed-form cycles,
// the quantity the simulator accumulates in AttributedKernelCycles)
// already split across tenant segments — the same shares its cost
// ledger charges. The collector splits each segment's share across
// instruction classes by integer prefix partitioning, so the shares
// always sum to the whole. Summed over any subset of frames, profile
// cycles reconcile ±0 against the pimsim attribution counter and the
// cost ledger for the same run.
//
// The collector also keeps cumulative per-DPU utilization
// accumulators — issue vs. DMA-excess vs. idle cycles per core —
// exported as heatmaps; a reader makes windows by subtracting two
// snapshots (SubHeatmap), as it does for profiles (Sub).
package profiler

import (
	"sync"
	"sync/atomic"
	"time"

	"transpimlib/internal/pimsim"
)

// Config describes a collector.
type Config struct {
	// Enabled turns the profiler on. Off (the zero value), the engine
	// builds no collector and its launch path skips the profile.
	Enabled bool
}

// maxFrames caps frame cardinality; past it, new stacks collapse into
// a single "~other" overflow frame.
const maxFrames = 4096

// Seg is one tenant's contiguous element range within a launch and
// its share of the launch's wall cycles.
type Seg struct {
	Tenant string
	N      int
	Wall   uint64
}

// LaunchContext carries what the engine knows about a launch and the
// simulator does not: which function/method the kernel serves, which
// pipeline stage (or fused-program phase) is launching, the launch's
// wall cycles, and the tenant segments the batch carries with their
// wall shares (which sum to Wall). The launching goroutine fills it
// and calls Observe; the Segs slice is reused across launches.
type LaunchContext struct {
	Function string
	Method   string
	Stage    string
	Wall     uint64
	Segs     []Seg
	N        int // total elements across Segs
}

// frameKey identifies one leaf of the attribution tree.
type frameKey struct {
	tenant   string
	function string
	method   string
	stage    string
	class    pimsim.OpClass
}

// frameCell is one frame's accumulators. Cells are insert-only (the
// map grows, entries never move), so Observe increments them with
// atomics under the map's read lock.
type frameCell struct {
	ops    atomic.Uint64 // instructions retired in this frame's class
	cycles atomic.Uint64 // per-class issue cycles (the Fig.-7 measure)
	wall   atomic.Uint64 // wall-cycle share (sums to attributed kernel cycles)
}

// dpuCell is one core's cumulative utilization decomposition. Per
// launch: issueAdj is the occupancy-adjusted issue time, dmaExcess the
// cycles by which the DMA engine outran the pipeline, idle the gap to
// the launch's slowest lane. The three sum to the launch wall for
// every core, so shares are exact.
type dpuCell struct {
	launches  atomic.Uint64
	wall      atomic.Uint64
	issueAdj  atomic.Uint64
	dmaExcess atomic.Uint64
	idle      atomic.Uint64
}

// dpuAccum is a plain snapshot of a dpuCell.
type dpuAccum struct {
	launches, wall, issueAdj, dmaExcess, idle uint64
}

// Collector aggregates launch profiles. One collector serves one
// engine (one pimsim.System); a cluster keeps one per replica and
// merges snapshots at export time.
type Collector struct {
	start time.Time

	mu       sync.RWMutex
	frames   map[frameKey]*frameCell
	overflow *frameCell // the "~other" sink once maxFrames is hit

	launches atomic.Uint64
	dpus     []dpuCell
}

// New builds a collector for a system with the given core count.
func New(dpus int) *Collector {
	if dpus < 0 {
		dpus = 0
	}
	return &Collector{
		start:  time.Now(),
		frames: make(map[frameKey]*frameCell),
		dpus:   make([]dpuCell, dpus),
	}
}

// Observe attributes one launch's per-lane records, as the simulator
// measured them, to the context's frames. It runs synchronously on the
// launching goroutine (the owner of one engine shard), so distinct shards
// contend only on the frame map's read lock and the cells' atomics.
func (c *Collector) Observe(lc *LaunchContext, cores []pimsim.CoreProfile) {
	if c == nil || len(cores) == 0 {
		return
	}
	wall := lc.Wall
	c.launches.Add(1)
	for i := range cores {
		cp := &cores[i]
		if cp.DPU < 0 || cp.DPU >= len(c.dpus) {
			continue
		}
		cell := &c.dpus[cp.DPU]
		issueAdj := pimsim.ClosedFormCycles(cp.IssueCycles, 0, cp.Tasklets)
		busy := cp.Cycles
		cell.launches.Add(1)
		cell.wall.Add(wall)
		cell.issueAdj.Add(issueAdj)
		cell.dmaExcess.Add(busy - issueAdj)
		cell.idle.Add(wall - busy)
	}

	// Per-class totals across the launch's cores.
	var tot pimsim.Counters
	for i := range cores {
		tot.Add(&cores[i].Counters)
	}

	segs := lc.Segs
	n := uint64(lc.N)
	if n == 0 || len(segs) == 0 {
		// A launch with no element context (shouldn't happen from the
		// engine, but keep the invariant): one anonymous segment.
		c.attributeSeg(lc, "", wall, &tot)
		return
	}

	// Split the per-class counters across tenant segments by exact
	// integer prefix partitioning over their element counts; each
	// segment's wall share arrives precomputed.
	var cum uint64
	var prev pimsim.Counters // prefix state: Cycles and Ops per class
	for _, sg := range segs {
		cum += uint64(sg.N)
		var seg pimsim.Counters
		for cl := range tot.Cycles {
			cc := tot.Cycles[cl] * cum / n
			oc := tot.Ops[cl] * cum / n
			seg.Cycles[cl] = cc - prev.Cycles[cl]
			seg.Ops[cl] = oc - prev.Ops[cl]
			prev.Cycles[cl] = cc
			prev.Ops[cl] = oc
		}
		c.attributeSeg(lc, sg.Tenant, sg.Wall, &seg)
	}
}

// attributeSeg splits one segment's wall-cycle share across
// instruction classes in proportion to the segment's per-class issue
// cycles (prefix partitioning again, so the class shares sum to the
// segment share exactly) and adds the result to the frames. When the
// segment charged no class cycles at all, the whole share lands on
// ctrl — cycles have to go somewhere for the totals to reconcile.
func (c *Collector) attributeSeg(lc *LaunchContext, tenant string, wallShare uint64, seg *pimsim.Counters) {
	var segTot uint64
	for _, v := range seg.Cycles {
		segTot += v
	}
	if segTot == 0 {
		for cl := range seg.Ops {
			w := uint64(0)
			if pimsim.OpClass(cl) == pimsim.OpCtrl {
				w = wallShare
			}
			if seg.Ops[cl] == 0 && w == 0 {
				continue
			}
			c.addFrame(lc, tenant, pimsim.OpClass(cl), seg.Ops[cl], 0, w)
		}
		return
	}
	var cumC, wPrev uint64
	for cl := range seg.Cycles {
		cumC += seg.Cycles[cl]
		wCum := wallShare * cumC / segTot
		w := wCum - wPrev
		wPrev = wCum
		if seg.Ops[cl] == 0 && seg.Cycles[cl] == 0 && w == 0 {
			continue
		}
		c.addFrame(lc, tenant, pimsim.OpClass(cl), seg.Ops[cl], seg.Cycles[cl], w)
	}
}

// addFrame bumps one frame's accumulators, creating the cell on first
// sight. Steady state: one read-lock map hit and three atomic adds.
func (c *Collector) addFrame(lc *LaunchContext, tenant string, cl pimsim.OpClass, ops, cycles, wall uint64) {
	key := frameKey{
		tenant:   tenant,
		function: lc.Function,
		method:   lc.Method,
		stage:    lc.Stage,
		class:    cl,
	}
	c.mu.RLock()
	cell := c.frames[key]
	c.mu.RUnlock()
	if cell == nil {
		c.mu.Lock()
		cell = c.frames[key]
		if cell == nil {
			if len(c.frames) >= maxFrames {
				// Cardinality cap: collapse into the overflow frame.
				if c.overflow == nil {
					c.overflow = new(frameCell)
				}
				cell = c.overflow
			} else {
				cell = new(frameCell)
				c.frames[key] = cell
			}
		}
		c.mu.Unlock()
	}
	cell.ops.Add(ops)
	cell.cycles.Add(cycles)
	cell.wall.Add(wall)
}

func makeHeatDPU(id int, d dpuAccum) HeatDPU {
	h := HeatDPU{
		DPU:         id,
		Launches:    d.launches,
		WallCycles:  d.wall,
		IssueCycles: d.issueAdj,
		DMACycles:   d.dmaExcess,
		IdleCycles:  d.idle,
	}
	if d.wall > 0 {
		h.IssueShare = float64(d.issueAdj) / float64(d.wall)
		h.DMAShare = float64(d.dmaExcess) / float64(d.wall)
		h.IdleShare = float64(d.idle) / float64(d.wall)
	}
	return h
}

// HeatDPU is one core's utilization decomposition, cumulative or over
// the interval between two snapshots: occupancy-adjusted issue cycles, DMA-excess cycles
// (DMA busy beyond the pipeline), and idle cycles waiting on the
// launch's slowest lane. The three cycle columns sum to WallCycles.
type HeatDPU struct {
	DPU         int     `json:"dpu"`
	Launches    uint64  `json:"launches"`
	WallCycles  uint64  `json:"wall_cycles"`
	IssueCycles uint64  `json:"issue_cycles"`
	DMACycles   uint64  `json:"dma_excess_cycles"`
	IdleCycles  uint64  `json:"idle_cycles"`
	IssueShare  float64 `json:"issue_share"`
	DMAShare    float64 `json:"dma_share"`
	IdleShare   float64 `json:"idle_share"`
}

// Heatmap is the per-DPU utilization export: cumulative totals since
// the collector started.
type Heatmap struct {
	Launches uint64    `json:"launches"`
	DPUs     []HeatDPU `json:"dpus"`
}

// SubHeatmap returns the interval heatmap cur − prev: per-core cycle
// and launch deltas with their shares recomputed, so issue + DMA-excess
// + idle still sums to the interval's wall cycles. Cores absent from
// prev are rated against zero.
func SubHeatmap(cur, prev Heatmap) Heatmap {
	out := Heatmap{Launches: cur.Launches - prev.Launches, DPUs: make([]HeatDPU, len(cur.DPUs))}
	for i, d := range cur.DPUs {
		var p HeatDPU
		if i < len(prev.DPUs) {
			p = prev.DPUs[i]
		}
		out.DPUs[i] = makeHeatDPU(d.DPU, dpuAccum{
			launches:  d.Launches - p.Launches,
			wall:      d.WallCycles - p.WallCycles,
			issueAdj:  d.IssueCycles - p.IssueCycles,
			dmaExcess: d.DMACycles - p.DMACycles,
			idle:      d.IdleCycles - p.IdleCycles,
		})
	}
	return out
}

// HeatmapSnapshot returns the cumulative per-DPU decomposition.
func (c *Collector) HeatmapSnapshot() Heatmap {
	if c == nil {
		return Heatmap{}
	}
	h := Heatmap{
		Launches: c.launches.Load(),
		DPUs:     make([]HeatDPU, len(c.dpus)),
	}
	for i := range c.dpus {
		cell := &c.dpus[i]
		h.DPUs[i] = makeHeatDPU(i, dpuAccum{
			launches:  cell.launches.Load(),
			wall:      cell.wall.Load(),
			issueAdj:  cell.issueAdj.Load(),
			dmaExcess: cell.dmaExcess.Load(),
			idle:      cell.idle.Load(),
		})
	}
	return h
}
