package pimsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Transfer bandwidths of the host↔PIM interface, in bytes/second,
// for transfers performed in parallel across all DRAM banks (possible
// when all per-bank buffers have the same size, §2.1) and serially
// otherwise. Values follow the PrIM characterization of a 2500-DPU
// UPMEM system.
const (
	DefaultHostToPIMBandwidth = 6.0e9 // aggregate, parallel
	DefaultPIMToHostBandwidth = 4.7e9 // aggregate, parallel
	DefaultSerialBandwidth    = 0.35e9
)

// Config describes a simulated PIM system.
type Config struct {
	DPUs     int       // number of PIM cores
	Tasklets int       // PIM threads per core (default 16)
	ClockHz  float64   // PIM core clock (default 350 MHz)
	Cost     CostModel // per-op cycle costs (default Default())

	HostToPIMBandwidth float64
	PIMToHostBandwidth float64
	SerialBandwidth    float64
}

func (c Config) withDefaults() Config {
	if c.DPUs <= 0 {
		c.DPUs = 1
	}
	if c.Tasklets <= 0 {
		c.Tasklets = DefaultTasklets
	}
	if c.ClockHz <= 0 {
		c.ClockHz = DefaultClockHz
	}
	if c.Cost == (CostModel{}) {
		c.Cost = Default()
	}
	if c.HostToPIMBandwidth <= 0 {
		c.HostToPIMBandwidth = DefaultHostToPIMBandwidth
	}
	if c.PIMToHostBandwidth <= 0 {
		c.PIMToHostBandwidth = DefaultPIMToHostBandwidth
	}
	if c.SerialBandwidth <= 0 {
		c.SerialBandwidth = DefaultSerialBandwidth
	}
	return c
}

// System is a full PIM system: a set of PIM cores plus the host↔PIM
// transfer engine with its timing model.
//
// Concurrency/ownership discipline (for long-lived runtimes such as
// internal/engine that run one owner goroutine per group of cores):
//
//   - Each DPU — its Mem contents, allocator and cycle counters — must
//     be owned by at most one goroutine at a time. Each owner launches
//     on its own Crew, and launches on disjoint shards are safe
//     concurrently: a launch touches only its own cores' entries of the
//     per-core launch state (ctxs, marks, verdicts).
//   - Mem backing storage grows on demand, so the first Write to a
//     region may allocate. Owners that must not allocate while serving
//     pre-touch their buffers (one Write over the full region) first.
//   - The transfer clock (ChargeHostToPIM, ChargePIMToHost, and the
//     Scatter/Gather/Broadcast helpers) is internally locked, so any
//     goroutine may charge transfer time at any point. It is the
//     clock of host programs that drive the system directly (the
//     Fig. 9 workloads); internal/engine books each batch's transfer
//     time itself and leaves this clock alone.
type System struct {
	cfg  Config
	dpus []*DPU

	mu               sync.Mutex // guards the transfer clocks
	hostToPIMSeconds float64
	pimToHostSeconds float64

	// faultAgent, when set, injects faults at the launch point (see
	// SetFaultAgent). Atomic so installing or removing it
	// races safely with in-flight launches.
	faultAgent atomic.Pointer[faultAgentBox]

	// ctxs, marks and verdicts are Crew.Launch's per-core state,
	// indexed by core id: the execution context each lane's kernel runs
	// with (its MRAM staging buffer persists across launches), each
	// lane's accounting before its kernel runs, and its fault verdict
	// for the launch. Owned like the cores themselves, so disjoint
	// concurrent launches never share an entry and a launch allocates
	// nothing for them.
	ctxs     []Ctx
	marks    []acct
	verdicts []LaunchVerdict

	// attribCycles accumulates every launch's wall cycles (its slowest
	// lane's closed-form cycles, after straggler verdicts) — the total a
	// cost ledger or profiler reconciles its per-tenant charges against.
	attribCycles atomic.Uint64
}

// NewSystem builds a system from cfg (zero fields take defaults).
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := &System{
		cfg:      cfg,
		dpus:     make([]*DPU, cfg.DPUs),
		ctxs:     make([]Ctx, cfg.DPUs),
		marks:    make([]acct, cfg.DPUs),
		verdicts: make([]LaunchVerdict, cfg.DPUs),
	}
	for i := range s.dpus {
		s.dpus[i] = NewDPU(i, cfg.Cost, cfg.Tasklets)
		s.ctxs[i].d = s.dpus[i]
	}
	return s
}

// NewSingleDPU is a convenience for microbenchmarks on one PIM core.
func NewSingleDPU() *System { return NewSystem(Config{DPUs: 1}) }

// Config returns the system configuration (with defaults applied).
func (s *System) Config() Config { return s.cfg }

// NumDPUs returns the number of PIM cores.
func (s *System) NumDPUs() int { return len(s.dpus) }

// DPU returns core i.
func (s *System) DPU(i int) *DPU { return s.dpus[i] }

// DPUs returns all cores.
func (s *System) DPUs() []*DPU { return s.dpus }

// Launch runs kernel on every PIM core, on a crew it opens and closes
// for the call. Kernels for distinct cores run concurrently on the host
// (bounded by GOMAXPROCS); each kernel sees its own Ctx. Launch blocks
// until all kernels complete and returns the first kernel error, if
// any. A long-lived owner launching again and again keeps a Crew.
func (s *System) Launch(kernel func(ctx *Ctx, dpuID int) error) error {
	ids := make([]int, len(s.dpus))
	for i := range ids {
		ids[i] = i
	}
	c := s.NewCrew(len(ids))
	defer c.Close()
	_, err := c.Launch(0, 0, ids, nil, kernel)
	return err
}

// Crew is a persistent set of lane workers that runs rank-level
// launches for one owner: NewCrew starts the workers once, every
// Launch wakes them, and Close stops them. A launch starts no
// goroutine and allocates nothing of its own. A crew runs one launch
// at a time; owners of disjoint shards keep a crew each.
type Crew struct {
	s       *System
	workers int
	wake    chan struct{} // one token per worker a launch wakes; sized so its sends never block
	exited  sync.WaitGroup

	// The launch in flight, reset by each Launch: the workers claim
	// lanes from next and keep the first kernel error.
	ids    []int
	kernel func(ctx *Ctx, dpuID int) error
	next   atomic.Int64
	done   sync.WaitGroup
	mu     sync.Mutex // guards err
	err    error
}

// NewCrew starts min(GOMAXPROCS, lanes) workers for launches of up to
// lanes cores. The launching goroutine only waits, so every lane runs
// on a worker.
func (s *System) NewCrew(lanes int) *Crew {
	c := &Crew{s: s, workers: min(runtime.GOMAXPROCS(0), lanes)}
	c.wake = make(chan struct{}, c.workers)
	c.exited.Add(c.workers)
	for w := 0; w < c.workers; w++ {
		go c.work()
	}
	return c
}

// work runs the lanes of one woken launch per token until Close.
func (c *Crew) work() {
	defer c.exited.Done()
	for range c.wake {
		c.runLanes()
	}
}

// Close stops the crew's workers and waits for them to exit. The crew
// must be idle.
func (c *Crew) Close() {
	close(c.wake)
	c.exited.Wait()
}

// Launch runs kernel on the listed PIM cores only — a rank-level
// launch — and measures it. Kernels for distinct cores run
// concurrently on the crew's workers; each kernel sees its core's Ctx.
// It blocks until all kernels complete.
//
// seq and attempt identify the launch to the installed FaultAgent (if
// any), consulted once per lane before the kernels start. Failed lanes
// skip their kernel and are reported in a *LaunchError; slowed lanes
// run normally and then have their modeled issue and DMA deltas scaled
// by the verdict's factor. A genuine kernel error takes precedence
// over injected failures.
//
// Each lane's accounting is folded once, after the verdicts: when
// lanes is non-nil (len(lanes) ≥ len(ids)), lanes[k] receives lane k's
// CoreProfile — all counts zero for a failed lane. The returned wall
// is the slowest lane's Cycles, and it is added to
// AttributedKernelCycles.
//
// Launches on different crews are safe concurrently as long as their
// shards are disjoint (see the System ownership discipline): a core's
// memories and counters are touched only by its own kernel.
func (c *Crew) Launch(seq, attempt uint64, ids []int, lanes []CoreProfile, kernel func(ctx *Ctx, dpuID int) error) (wall uint64, err error) {
	s := c.s
	// Mark every lane and take its verdict before the kernels start.
	// Verdicts are applied on the launching goroutine (which owns the
	// cores): failed lanes skip their kernel entirely; slowed lanes
	// have their deltas scaled after the kernels finish.
	agent := s.loadFaultAgent()
	for k, i := range ids {
		s.marks[i] = s.dpus[i].mark()
		s.verdicts[i] = LaunchVerdict{}
		if agent != nil {
			s.verdicts[i] = agent.Launch(seq, attempt, k)
		}
	}
	c.ids, c.kernel, c.err = ids, kernel, nil
	c.next.Store(0)
	n := min(c.workers, len(ids))
	c.done.Add(n)
	for w := 0; w < n; w++ {
		c.wake <- struct{}{}
	}
	c.done.Wait()
	err = c.err
	// A parked crew must not pin the finished launch's work.
	c.ids, c.kernel = nil, nil
	// Fold each lane's delta once, scaling a slowed lane's issue and DMA
	// cycles on the core too so later readers of its counters see the
	// modeled (slowed) cycles, and collect the failed lanes.
	var failed []int
	for k, i := range ids {
		d, v := s.dpus[i], s.verdicts[i]
		cp := CoreProfile{DPU: i, Tasklets: d.tasklets}
		if v.Fail {
			failed = append(failed, k)
		} else {
			m := &s.marks[i]
			cp.Counters, cp.IssueCycles, cp.DMACycles = d.since(m)
			if v.SlowFactor > 1 {
				issue := uint64(float64(cp.IssueCycles) * v.SlowFactor)
				d.slow += issue - cp.IssueCycles
				cp.IssueCycles = issue
				cp.DMACycles = uint64(float64(cp.DMACycles) * v.SlowFactor)
				d.dmaCycles = m.dmaCycles + cp.DMACycles
			}
			cp.Cycles = ClosedFormCycles(cp.IssueCycles, cp.DMACycles, d.tasklets)
		}
		wall = max(wall, cp.Cycles)
		if lanes != nil {
			lanes[k] = cp
		}
	}
	s.attribCycles.Add(wall)
	if err != nil {
		return wall, err // a genuine kernel error outranks injected failures
	}
	if len(failed) > 0 {
		return wall, &LaunchError{Seq: seq, Attempt: attempt, Lanes: failed}
	}
	return wall, nil
}

// runLanes runs lanes of the launch in flight until none is left, then
// signals the launch.
func (c *Crew) runLanes() {
	defer c.done.Done()
	s := c.s
	for {
		k := int(c.next.Add(1) - 1)
		if k >= len(c.ids) {
			return
		}
		i := c.ids[k]
		if s.verdicts[i].Fail {
			continue // injected hard failure: the kernel never runs
		}
		if e := c.kernel(&s.ctxs[i], i); e != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("pimsim: dpu %d: %w", i, e)
			}
			c.mu.Unlock()
		}
	}
}

// AttributedKernelCycles returns the total wall cycles of every launch
// so far: the sum of Crew.Launch's returned walls.
func (s *System) AttributedKernelCycles() uint64 { return s.attribCycles.Load() }

// KernelCycles returns the cycle count of the slowest PIM core — the
// kernel completion time in cycles, since all cores run concurrently.
func (s *System) KernelCycles() uint64 {
	var mx uint64
	for _, d := range s.dpus {
		if c := d.Cycles(); c > mx {
			mx = c
		}
	}
	return mx
}

// KernelSeconds converts KernelCycles to wall time at the PIM clock.
func (s *System) KernelSeconds() float64 {
	return float64(s.KernelCycles()) / s.cfg.ClockHz
}

// ResetCycles zeroes the accounting on every core and the transfer
// clocks, leaving memory contents intact.
func (s *System) ResetCycles() {
	for _, d := range s.dpus {
		d.ResetCycles()
	}
	s.mu.Lock()
	s.hostToPIMSeconds = 0
	s.pimToHostSeconds = 0
	s.mu.Unlock()
}

// ResetMemory frees all MRAM/WRAM allocations on every core.
func (s *System) ResetMemory() {
	for _, d := range s.dpus {
		d.MRAM.Reset()
		d.WRAM.Reset()
	}
}

// BroadcastToMRAM copies the same buffer into every core's DRAM bank at
// the same address, charging parallel-transfer time once (all buffers
// have equal size, so the transfer is parallel across banks, §2.1).
// It returns the common MRAM address.
func (s *System) BroadcastToMRAM(buf []byte) int {
	addr := -1
	for _, d := range s.dpus {
		a := d.MRAM.MustAlloc(len(buf))
		if addr == -1 {
			addr = a
		} else if a != addr {
			panic("pimsim: broadcast allocation diverged across banks")
		}
		d.MRAM.Write(a, buf)
	}
	// Broadcast replicates the buffer to every bank; the interface moves
	// len(buf) bytes to each of the N banks but the copies proceed in
	// parallel rank-wide, so the cost scales with one buffer at the
	// aggregate parallel bandwidth divided by the per-bank share.
	s.ChargeHostToPIM(len(buf)*len(s.dpus), true)
	return addr
}

// ScatterToMRAM distributes per-core buffers (one per DPU). If all
// buffers have the same length the transfer is modeled as parallel;
// otherwise it degrades to the serial bandwidth (§2.1). Returns the
// per-core MRAM addresses.
func (s *System) ScatterToMRAM(bufs [][]byte) []int {
	if len(bufs) != len(s.dpus) {
		panic("pimsim: scatter needs one buffer per DPU")
	}
	addrs := make([]int, len(bufs))
	total, mx, equal := 0, 0, true
	for i, b := range bufs {
		addrs[i] = s.dpus[i].MRAM.MustAlloc(len(b))
		s.dpus[i].MRAM.Write(addrs[i], b)
		total += len(b)
		if len(b) != len(bufs[0]) {
			equal = false
		}
		if len(b) > mx {
			mx = len(b)
		}
	}
	s.ChargeHostToPIM(total, equal)
	return addrs
}

// GatherFromMRAM reads n bytes from every core's DRAM bank at addr into
// out[i], charging parallel transfer time. The per-core slices share
// one backing allocation (callers may retain them; they stay valid).
func (s *System) GatherFromMRAM(addr, n int) [][]byte {
	out := make([][]byte, len(s.dpus))
	backing := make([]byte, n*len(s.dpus))
	for i, d := range s.dpus {
		out[i] = backing[i*n : (i+1)*n : (i+1)*n]
		d.MRAM.Read(addr, out[i])
	}
	s.ChargePIMToHost(n*len(s.dpus), true)
	return out
}

// GatherFromMRAMAt reads per-core regions (addr[i], n[i]); parallel
// when all sizes match, serial otherwise. The per-core slices share
// one backing allocation.
func (s *System) GatherFromMRAMAt(addrs, ns []int) [][]byte {
	if len(addrs) != len(s.dpus) || len(ns) != len(s.dpus) {
		panic("pimsim: gather needs one region per DPU")
	}
	out := make([][]byte, len(s.dpus))
	total, equal := 0, true
	for _, n := range ns {
		total += n
		if n != ns[0] {
			equal = false
		}
	}
	backing := make([]byte, total)
	off := 0
	for i, d := range s.dpus {
		out[i] = backing[off : off+ns[i] : off+ns[i]]
		d.MRAM.Read(addrs[i], out[i])
		off += ns[i]
	}
	s.ChargePIMToHost(total, equal)
	return out
}

// HostToPIMSeconds returns accumulated modeled Host→PIM transfer time.
func (s *System) HostToPIMSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostToPIMSeconds
}

// PIMToHostSeconds returns accumulated modeled PIM→Host transfer time.
func (s *System) PIMToHostSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pimToHostSeconds
}

// TransferSeconds returns total modeled transfer time in both
// directions.
func (s *System) TransferSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostToPIMSeconds + s.pimToHostSeconds
}

// ChargeHostToPIM accounts Host→PIM transfer time for the given total
// byte count without moving data — used when a kernel clock was reset
// after setup and the input transfer belongs to execution time, or
// when a runtime moves bytes through the Mem API directly. Safe for
// concurrent use.
func (s *System) ChargeHostToPIM(totalBytes int, parallel bool) {
	bw := s.cfg.HostToPIMBandwidth
	if !parallel {
		bw = s.cfg.SerialBandwidth
	}
	s.mu.Lock()
	s.hostToPIMSeconds += float64(totalBytes) / bw
	s.mu.Unlock()
}

// ChargePIMToHost is the symmetric PIM→Host accounting. Safe for
// concurrent use.
func (s *System) ChargePIMToHost(totalBytes int, parallel bool) {
	bw := s.cfg.PIMToHostBandwidth
	if !parallel {
		bw = s.cfg.SerialBandwidth
	}
	s.mu.Lock()
	s.pimToHostSeconds += float64(totalBytes) / bw
	s.mu.Unlock()
}
