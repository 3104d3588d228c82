package workloads

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/poly"
	"transpimlib/internal/stats"
)

// Result is one bar of Figure 9: a workload run by one variant.
type Result struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Elements int    `json:"elements"`

	// KernelSeconds is compute time: modeled PIM cycles at the PIM
	// clock, or host wall time for measured CPU runs.
	KernelSeconds float64 `json:"kernel_seconds"`
	// TransferSeconds is the modeled Host↔PIM transfer time (zero for
	// CPU variants).
	TransferSeconds float64 `json:"transfer_seconds"`

	// Errors compares outputs against the float64 host reference.
	Errors stats.Errors `json:"errors"`

	TableBytes int `json:"table_bytes"`
}

// Seconds is the headline execution time: kernel plus transfers.
func (r Result) Seconds() float64 { return r.KernelSeconds + r.TransferSeconds }

// String renders the result as one Fig. 9 table row.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %-16s n=%-9d kernel=%9.4fs transfer=%8.4fs total=%9.4fs rmse=%.3g",
		r.Workload, r.Variant, r.Elements, r.KernelSeconds, r.TransferSeconds, r.Seconds(), r.Errors.RMSE)
}

// Option is one Blackscholes input record (PARSEC-style).
type Option struct {
	Spot     float32 // current price S
	Strike   float32 // strike price K
	Rate     float32 // risk-free rate r
	Vol      float32 // volatility v
	Time     float32 // years to maturity T
	CallFlag bool    // call (true) or put (false)
}

// GenOptions produces a deterministic pseudo-random option portfolio
// (the paper uses a 10M-element input vector, §4.1.2).
func GenOptions(n int, seed uint64) []Option {
	spots := stats.RandomInputs(10, 100, n, seed+1)
	strikes := stats.RandomInputs(10, 100, n, seed+2)
	vols := stats.RandomInputs(0.1, 0.5, n, seed+3)
	times := stats.RandomInputs(0.2, 2.0, n, seed+4)
	flags := stats.RandomInputs(0, 1, n, seed+5)
	out := make([]Option, n)
	for i := range out {
		out[i] = Option{
			Spot:     spots[i],
			Strike:   strikes[i],
			Rate:     0.1,
			Vol:      vols[i],
			Time:     times[i],
			CallFlag: flags[i] < 0.5,
		}
	}
	return out
}

// BlackscholesRef prices one option in double precision — the host
// reference for accuracy metrics.
func BlackscholesRef(o Option) float64 {
	s, k := float64(o.Spot), float64(o.Strike)
	r, v, t := float64(o.Rate), float64(o.Vol), float64(o.Time)
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	disc := k * math.Exp(-r*t)
	if o.CallFlag {
		return s*poly.CNDFHost(d1) - disc*poly.CNDFHost(d2)
	}
	return disc*poly.CNDFHost(-d2) - s*poly.CNDFHost(-d1)
}

// blackscholesCPU32 prices one option in float32 with the standard
// math library — the CPU baseline kernel.
func blackscholesCPU32(o Option) float32 {
	s, k := float64(o.Spot), float64(o.Strike)
	r, v, t := float64(o.Rate), float64(o.Vol), float64(o.Time)
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	disc := k * math.Exp(-r*t)
	if o.CallFlag {
		return float32(s*poly.CNDFHost(d1) - disc*poly.CNDFHost(d2))
	}
	return float32(disc*poly.CNDFHost(-d2) - s*poly.CNDFHost(-d1))
}

// BlackscholesCPU runs the measured host baseline with the given
// worker count and reports measured wall time.
func BlackscholesCPU(opts []Option, threads int) Result {
	out := make([]float32, len(opts))
	start := time.Now()
	parallelFor(len(opts), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = blackscholesCPU32(opts[i])
		}
	})
	elapsed := time.Since(start).Seconds()
	var col stats.Collector
	for i, o := range opts {
		col.Add(out[i], BlackscholesRef(o))
	}
	return Result{
		Workload:      "blackscholes",
		Variant:       fmt.Sprintf("cpu-%dt-measured", threads),
		Elements:      len(opts),
		KernelSeconds: elapsed,
		Errors:        col.Result(),
	}
}

// BlackscholesCPUModeled returns the analytic Xeon baseline (§4.1's
// host), so Fig. 9 ratios reproduce on any machine.
func BlackscholesCPUModeled(n, threads int) Result {
	m := DefaultXeon(threads)
	return Result{
		Workload:      "blackscholes",
		Variant:       fmt.Sprintf("cpu-%dt", threads),
		Elements:      n,
		KernelSeconds: m.Seconds(BlackscholesCycles(), n),
	}
}

// BlackscholesPIM runs the portfolio on the PIM system with the given
// math kit, distributing options evenly across cores, and reports
// modeled kernel and transfer time plus accuracy.
func BlackscholesPIM(dpus int, opts []Option, kit Kit) (Result, error) {
	sys := pimsim.NewSystem(pimsim.Config{DPUs: dpus, Cost: kit.Cost})
	n := len(opts)

	// Scatter: five float32 input arrays per core (equal sizes →
	// parallel transfers; the remainder core gets padding).
	per := (n + dpus - 1) / dpus
	inBufs := make([][]byte, dpus)
	for d := 0; d < dpus; d++ {
		buf := make([]byte, per*24)
		for j := 0; j < per; j++ {
			idx := d*per + j
			if idx >= n {
				break
			}
			o := opts[idx]
			putF32(buf, j*24+0, o.Spot)
			putF32(buf, j*24+4, o.Strike)
			putF32(buf, j*24+8, o.Rate)
			putF32(buf, j*24+12, o.Vol)
			putF32(buf, j*24+16, o.Time)
			flag := float32(0)
			if o.CallFlag {
				flag = 1
			}
			putF32(buf, j*24+20, flag)
		}
		inBufs[d] = buf
	}
	inAddrs := sys.ScatterToMRAM(inBufs)

	outAddr := -1
	for d := 0; d < dpus; d++ {
		a := sys.DPU(d).MRAM.MustAlloc(per * 4)
		if outAddr == -1 {
			outAddr = a
		}
	}

	kits := make([]*DeviceKit, dpus)
	for d := 0; d < dpus; d++ {
		k, err := kit.Build(sys.DPU(d))
		if err != nil {
			return Result{}, err
		}
		kits[d] = k
	}

	sys.ResetCycles()
	// Re-charge the input scatter (ResetCycles cleared the clock; the
	// tables above are setup, not execution).
	sys.ChargeHostToPIM(per*24*dpus, true)

	err := sys.Launch(func(ctx *pimsim.Ctx, d int) error {
		k := kits[d]
		mram := ctx.DPU().MRAM
		count := per
		if d*per+count > n {
			count = n - d*per
		}
		if count <= 0 {
			return nil
		}
		// Stream the operand chunk through the scratchpad (§4.1.1).
		ctx.Charge(4) // loop setup
		chunkDMA(ctx, count*24)
		for j := 0; j < count; j++ {
			base := inAddrs[d] + j*24
			s := ctx.LoadStreamedF32(mram, base)
			kk := ctx.LoadStreamedF32(mram, base+4)
			r := ctx.LoadStreamedF32(mram, base+8)
			v := ctx.LoadStreamedF32(mram, base+12)
			t := ctx.LoadStreamedF32(mram, base+16)
			flag := ctx.LoadStreamedF32(mram, base+20)
			price := blackscholesKernel(ctx, k, s, kk, r, v, t, flag >= 0.5)
			ctx.StoreStreamedF32(mram, outAddr+4*j, price)
		}
		chunkDMA(ctx, count*4)
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	kernel := sys.KernelSeconds()
	outs := sys.GatherFromMRAM(outAddr, per*4)

	var col stats.Collector
	for i, o := range opts {
		d, j := i/per, i%per
		col.Add(f32At(outs[d], j*4), BlackscholesRef(o))
	}
	return Result{
		Workload:        "blackscholes",
		Variant:         kit.Name,
		Elements:        n,
		KernelSeconds:   kernel,
		TransferSeconds: sys.TransferSeconds(),
		Errors:          col.Result(),
		TableBytes:      kits[0].TableBytes,
	}, nil
}

// blackscholesKernel prices one option on the PIM core. When the kit
// provides a fixed-point CNDF, the d1/d2 pipeline runs with fixed
// multiplies where the Q3.28 range permits (the paper's fixed-point
// Blackscholes variant).
func blackscholesKernel(ctx *pimsim.Ctx, k *DeviceKit, s, strike, r, v, t float32, call bool) float32 {
	sqrtT := k.Sqrt(ctx, t)
	logSK := k.Log(ctx, ctx.FDiv(s, strike))
	vv := ctx.FMul(v, v)
	num := ctx.FAdd(logSK, ctx.FMul(ctx.FAdd(r, ctx.FMul(0.5, vv)), t))
	vSqrtT := ctx.FMul(v, sqrtT)
	d1 := ctx.FDiv(num, vSqrtT)
	d2 := ctx.FSub(d1, vSqrtT)
	disc := ctx.FMul(strike, k.Exp(ctx, ctx.FNeg(ctx.FMul(r, t))))
	var n1, n2 float32
	if k.CNDFQ != nil {
		n1 = ctx.QToF(k.CNDFQ(ctx, ctx.QFromF(d1)))
		n2 = ctx.QToF(k.CNDFQ(ctx, ctx.QFromF(d2)))
	} else {
		n1 = k.CNDF(ctx, d1)
		n2 = k.CNDF(ctx, d2)
	}
	ctx.Branch()
	if call {
		return ctx.FSub(ctx.FMul(s, n1), ctx.FMul(disc, n2))
	}
	return ctx.FSub(ctx.FMul(disc, ctx.FSub(1, n2)), ctx.FMul(s, ctx.FSub(1, n1)))
}

// --- helpers shared by the workloads ---

func putF32(b []byte, off int, v float32) {
	u := math.Float32bits(v)
	b[off] = byte(u)
	b[off+1] = byte(u >> 8)
	b[off+2] = byte(u >> 16)
	b[off+3] = byte(u >> 24)
}

func f32At(b []byte, off int) float32 {
	u := uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	return math.Float32frombits(u)
}

// chunkDMA charges the bulk MRAM↔WRAM streaming of a kernel's operand
// chunk without materializing a scratchpad copy (the per-element loads
// are charged separately as scratchpad accesses).
func chunkDMA(ctx *pimsim.Ctx, bytes int) {
	const maxChunk = 2048
	for bytes > 0 {
		c := bytes
		if c > maxChunk {
			c = maxChunk
		}
		ctx.ChargeDMA(c)
		bytes -= c
	}
}

// parallelFor splits [0, n) across the given number of goroutines.
func parallelFor(n, threads int, body func(lo, hi int)) {
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}
	prev := runtime.GOMAXPROCS(0)
	_ = prev
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
