package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"transpimlib/internal/cordic"
	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/fixed"
	"transpimlib/internal/isa"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/rangered"
	"transpimlib/internal/stats"
	"transpimlib/internal/workloads"
)

// Doc is the reproduction document. A nil section was not computed.
type Doc struct {
	Table1    *Section[Table1Row]                `json:"table1,omitempty"`
	Table2    *Section[Table2Row]                `json:"table2,omitempty"`
	Fig1      *Section[workloads.Fig1Comparison] `json:"fig1,omitempty"`
	Fig4      *Section[Fig4Row]                  `json:"fig4,omitempty"`
	Points    *Section[Point]                    `json:"points,omitempty"` // Figs. 5–7 and explain
	Fig8      *Section[Fig8Row]                  `json:"fig8,omitempty"`
	Fig9      *Section[workloads.Result]         `json:"fig9,omitempty"`
	Takeaways *Section[Verdict]                  `json:"takeaways,omitempty"`
	Accuracy  *Section[AccuracyRow]              `json:"accuracy,omitempty"`
	ISA       *Section[ISARow]                   `json:"isa,omitempty"`
	Fused     *Section[workloads.FusedResult]    `json:"fused,omitempty"`
}

// Section is one table or figure: the cost profile it ran on, its
// simulated cores and sampled inputs where it has them, and its rows.
type Section[R any] struct {
	Profile string `json:"profile,omitempty"`
	Cores   int    `json:"cores,omitempty"`
	Inputs  int    `json:"inputs,omitempty"`
	Rows    []R    `json:"rows"`
}

// Key names a run: operation, method, storage (wram or mram), wrap
// (trig inputs reduced into [0, 2π] on the device or not), profile.
type Key struct {
	Op      string `json:"op"`
	Method  string `json:"method,omitempty"`
	Storage string `json:"storage,omitempty"`
	Wrap    string `json:"wrap,omitempty"`
	Profile string `json:"profile"`
}

func keyOf(fn core.Function, p core.Params, profile string) Key {
	return Key{fn.String(), engine.MethodLabel(p), p.Placement.String(), map[bool]string{false: "nowrap", true: "wrap"}[p.WideRange], profile}
}

// Point is one Fig. 5–7 sweep configuration at one accuracy knob; its
// class maps total the kernel's ops and cycles over all inputs.
type Point struct {
	Key
	Size          string            `json:"size"`
	RMSE          float64           `json:"rmse"`
	CyclesPerElem float64           `json:"cycles_per_elem"`
	SetupSeconds  float64           `json:"setup_seconds"`
	BuildSeconds  float64           `json:"build_seconds"`
	TableBytes    int               `json:"table_bytes"`
	ClassCycles   map[string]uint64 `json:"class_cycles,omitempty"`
	ClassOps      map[string]uint64 `json:"class_ops,omitempty"`
	wall          float64           // -measured: this host's wall time for the build
}

// Rows of the other sections.
type (
	Table1Row struct {
		Mode      string  `json:"mode"`
		Phi       string  `json:"phi"`
		InvGain   float64 `json:"inv_gain_32_iters"`
		Functions string  `json:"functions"`
	}
	Table2Row struct {
		Method    string   `json:"method"`
		Functions []string `json:"functions"`
	}
	Fig4Row struct {
		LUT     string `json:"lut"`
		Buckets []int  `json:"buckets"`
		Entries int    `json:"entries"`
	}
	Fig8Row struct {
		Key
		Cycles uint64 `json:"cycles"`
		Steps  string `json:"steps"`
	}
	Verdict struct {
		ID     string `json:"id"`
		Claim  string `json:"claim"`
		Pass   bool   `json:"pass"`
		Detail string `json:"detail"`
	}
	AccuracyRow struct {
		Key
		Errors        stats.Errors `json:"errors"`
		CyclesPerElem float64      `json:"cycles_per_elem"`
	}
	ISARow struct {
		Routine   string  `json:"routine"`
		AsmInstrs float64 `json:"asm_instrs"`
		Charge    float64 `json:"charge"`
		Ratio     float64 `json:"ratio"`
	}
)

// Geometry: the paper's per-core loads on fewer cores.
const (
	accuracyInputs = 1 << 14 // per function in the accuracy table
	cores          = 64      // simulated cores of Figs. 1 and 9 and the fused table
	fusedElements  = cores * 1024
	upmem          = "upmem" // the machine of the sections whose kits fix it
)

// compute runs the selected sections; keyed sections compute only what
// flt selects. measured times each sweep point's table build.
func compute(sel map[string]bool, flt filter, profile string, cost pimsim.CostModel, n int, measured bool) (*Doc, error) {
	d := &Doc{}
	if sel["table1"] {
		d.Table1 = &Section[Table1Row]{Rows: []Table1Row{
			{cordic.Circular.String(), "atan(2^-i)", 1 / cordic.NewTables(cordic.Circular, 32).GainF, "sin, cos, tan, arctan"},
			{cordic.Hyperbolic.String(), "atanh(2^-i)", 1 / cordic.NewTables(cordic.Hyperbolic, 32).GainF, "sinh, cosh, tanh, exp, log, sqrt, atanh"},
			{cordic.Linear.String(), "2^-i", 1 / cordic.NewTables(cordic.Linear, 32).GainF, "multiplication, division"},
		}}
	}
	if sel["table2"] {
		d.Table2 = &Section[Table2Row]{}
		for _, m := range core.Methods() {
			r := Table2Row{Method: m.String(), Functions: []string{}}
			for _, fn := range core.Functions() {
				if m.Supports(fn) {
					r.Functions = append(r.Functions, fn.String())
				}
			}
			d.Table2.Rows = append(d.Table2.Rows, r)
		}
	}
	if sel["fig4"] {
		d.Fig4 = &Section[Fig4Row]{Rows: figure4()}
	}
	if sel["fig5"] || sel["fig6"] || sel["fig7"] || sel["explain"] {
		d.Points = &Section[Point]{Profile: profile, Inputs: n, Rows: sweep(flt, profile, cost, n, measured)}
	}
	if sel["fig8"] {
		d.Fig8 = &Section[Fig8Row]{Profile: profile, Rows: figure8(flt, profile, cost)}
	}
	if sel["takeaways"] {
		d.Takeaways = &Section[Verdict]{Profile: profile, Inputs: n, Rows: takeaways(cost, n)}
	}
	if sel["accuracy"] {
		d.Accuracy = &Section[AccuracyRow]{Profile: profile, Inputs: accuracyInputs, Rows: accuracy(flt, profile, cost)}
	}
	var err error
	if sel["fig1"] || sel["fig9"] {
		err = figure9(d)
	}
	if sel["isa"] && err == nil {
		d.ISA = &Section[ISARow]{Profile: upmem}
		d.ISA.Rows, err = isaRows(pimsim.Default())
	}
	if sel["fused"] && err == nil {
		d.Fused = &Section[workloads.FusedResult]{Profile: upmem, Cores: cores, Inputs: fusedElements}
		e := must(engine.New(engine.Config{DPUs: cores, MaxBatch: fusedElements, Ledger: true}))
		defer e.Close()
		for _, cs := range workloads.FusedCases() {
			r, ferr := workloads.RunFused(e, cs, fusedElements, false)
			d.Fused.Rows, err = append(d.Fused.Rows, r), errors.Join(err, ferr)
		}
	}
	return d, err
}

// figure4 places each LUT family's entries over [0, 5]: uniform M- and
// L-LUTs, a D-LUT as dense as the floats, a DL-LUT filling its gap.
func figure4() []Fig4Row {
	var m, l, d, near []float64
	for i := 0; i < 96; i++ {
		if i < 64 {
			m = append(m, float64(i)/12.8)
		}
		if i < 80 {
			l = append(l, float64(i)/16)
		}
		if i < 16 {
			near = append(near, float64(i)/128)
		}
		d = append(d, math.Ldexp(1+float64(i%16)/16, i/16-3))
	}
	var rows []Fig4Row
	for i, pos := range [][]float64{m, l, d, append(near, d...)} {
		r := Fig4Row{LUT: []string{"m-lut (k=12.8)", "l-lut (k=2^4)", "d-lut (m=4, e≥-3)", "dl-lut (d + l near 0)"}[i], Buckets: make([]int, 20)}
		for _, p := range pos {
			if p < 5 {
				r.Buckets[int(p*4)]++
				r.Entries++
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// sweep runs the Fig. 5 curves of every selected function.
func sweep(flt filter, profile string, cost pimsim.CostModel, n int, measured bool) []Point {
	var out []Point
	for _, fn := range core.Functions() {
		if !flt.fn(fn) {
			continue
		}
		lo, hi := fn.Domain()
		inputs := stats.RandomInputs(lo, hi, n, 0x7161)
		for _, sc := range core.Fig5Curves(fn) {
			if !flt.match(keyOf(fn, core.Params{Method: sc.Method, Interp: sc.Interp, Placement: sc.Placement}, profile)) {
				continue
			}
			sc.Cost = cost
			for _, p := range sc.Run(inputs) {
				pt := Point{Key: keyOf(fn, p.Par, profile), Size: fmt.Sprintf("2^%d", p.Par.SizeLog2), RMSE: p.Errors.RMSE,
					CyclesPerElem: p.CyclesPerElem, SetupSeconds: p.SetupSeconds, BuildSeconds: p.BuildSeconds, TableBytes: p.TableBytes}
				switch p.Par.Method {
				case core.CORDIC, core.CORDICLUT:
					pt.Size = fmt.Sprintf("it%d", p.Par.Iterations)
				case core.Poly:
					pt.Size = fmt.Sprintf("d%d", p.Par.Degree)
				}
				pt.ClassCycles, pt.ClassOps = map[string]uint64{}, map[string]uint64{}
				for cl := pimsim.OpClass(0); cl < pimsim.NumOpClasses(); cl++ {
					if p.Counters.Ops[cl] != 0 || p.Counters.Cycles[cl] != 0 {
						pt.ClassCycles[cl.String()], pt.ClassOps[cl.String()] = p.Counters.Cycles[cl], p.Counters.Ops[cl]
					}
				}
				if measured {
					dpu := pimsim.NewDPU(0, cost, pimsim.DefaultTasklets)
					start := time.Now()
					_, _ = core.Build(fn, p.Par, dpu) // sc.Run built this configuration already
					pt.wall = time.Since(start).Seconds()
				}
				out = append(out, pt)
			}
		}
	}
	return out
}

// figure8 measures the range reduction/extension costs of Fig. 8.
func figure8(flt filter, profile string, cost pimsim.CostModel) []Fig8Row {
	steps := []struct {
		op, what string
		run      func(*pimsim.Ctx)
	}{
		{"sin", "2π reduction + quadrant fold + fix-up", func(c *pimsim.Ctx) {
			theta, q := rangered.FoldQuadrant(c, rangered.To2Pi(c, 123.456))
			rangered.ApplySinQuadrant(c, theta, theta, q)
		}},
		{"exp", "Cody-Waite split + ldexp join", func(c *pimsim.Ctx) {
			r, k := rangered.SplitExp(c, 7.7)
			rangered.JoinExp(c, r, k)
		}},
		{"log", "frexp split + e·ln2 join", func(c *pimsim.Ctx) {
			m, e := rangered.SplitLog(c, 1234.5)
			rangered.JoinLog(c, m, e)
		}},
		{"sqrt", "frexp split + parity + ldexp join", func(c *pimsim.Ctx) {
			m, h := rangered.SplitSqrt(c, 1234.5)
			rangered.JoinSqrt(c, m, h)
		}},
	}
	var out []Fig8Row
	for _, s := range steps {
		if k := (Key{Op: s.op, Profile: profile}); flt.match(k) {
			d := pimsim.NewDPU(0, cost, pimsim.DefaultTasklets)
			ctx := d.NewCtx()
			const reps = 256
			for i := 0; i < reps; i++ {
				s.run(ctx)
			}
			out = append(out, Fig8Row{k, d.Cycles() / reps, s.what})
		}
	}
	return out
}

// takeaways checks Key Takeaways 1–4 and §4.2.4 on sine, tangent and
// tanh.
func takeaways(cost pimsim.CostModel, n int) []Verdict {
	measure := func(fn core.Function, p core.Params, in []float32) core.Point {
		pt, _ := core.MeasureOperatorCost(fn, p, in, cost) // every configuration below builds
		return pt
	}
	sinIn := stats.RandomInputs(0, 2*math.Pi, n, 1)
	li := measure(core.Sin, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, sinIn)
	mi := measure(core.Sin, core.Params{Method: core.MLUT, Interp: true, SizeLog2: 12}, sinIn)
	fi := measure(core.Sin, core.Params{Method: core.LLUTFixed, Interp: true, SizeLog2: 12}, sinIn)
	cord := measure(core.Sin, core.Params{Method: core.CORDIC, Iterations: 30}, sinIn)
	lut14 := measure(core.Sin, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 14, Placement: pimsim.InMRAM}, sinIn)
	ni := measure(core.Sin, core.Params{Method: core.LLUT, SizeLog2: 16, Placement: pimsim.InMRAM}, sinIn)
	wide := measure(core.Sin, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12, WideRange: true}, stats.RandomInputs(-20, 20, n, 2))
	dl := measure(core.Tanh, core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 12}, stats.RandomInputs(-7.9, 7.9, n, 3))
	tan := measure(core.Tan, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, sinIn)

	dc := cord.CyclesPerElem - lut14.CyclesPerElem
	ds := lut14.SetupSeconds - cord.SetupSeconds
	ratio := wide.CyclesPerElem / dl.CyclesPerElem
	return []Verdict{
		{"KT1", "interpolated L-LUT beats interpolated M-LUT at equal accuracy",
			li.CyclesPerElem < mi.CyclesPerElem && li.Errors.RMSE < 2*mi.Errors.RMSE,
			fmt.Sprintf("L-LUTi %.0f cyc (rmse %.2g) vs M-LUTi %.0f cyc (rmse %.2g); fixed L-LUTi %.0f cyc",
				li.CyclesPerElem, li.Errors.RMSE, mi.CyclesPerElem, mi.Errors.RMSE, fi.CyclesPerElem)},
		{"KT2", "CORDIC amortizes better below a small op count", dc > 0 && ds > 0,
			fmt.Sprintf("L-LUT setup pays off after %.0f sine ops (paper: ~40)", ds/(dc/pimsim.DefaultClockHz))},
		{"KT3", "interpolation reaches non-interp accuracy with far less memory",
			li.Errors.RMSE < ni.Errors.RMSE && li.TableBytes*4 < ni.TableBytes,
			fmt.Sprintf("L-LUTi 2^12: %d B rmse %.2g vs L-LUT 2^16: %d B rmse %.2g; CORDIC-30: %d B",
				li.TableBytes, li.Errors.RMSE, ni.TableBytes, ni.Errors.RMSE, cord.TableBytes)},
		{"KT4", "DL-LUT tanh ≈2× faster than wide-range L-LUTi sine at similar accuracy",
			ratio > 1.5 && ratio < 4 && dl.Errors.RMSE < 10*wide.Errors.RMSE,
			fmt.Sprintf("speedup %.2f× (tanh DL-LUTi %.0f cyc rmse %.2g; sine %.0f cyc rmse %.2g)",
				ratio, dl.CyclesPerElem, dl.Errors.RMSE, wide.CyclesPerElem, wide.Errors.RMSE)},
		{"§4.2.4", "tangent ≈2-3× the cycles of sine (sin+cos+fdiv)", tan.CyclesPerElem > 1.3*li.CyclesPerElem,
			fmt.Sprintf("tan %.0f cyc vs sin %.0f cyc (%.2f×)", tan.CyclesPerElem, li.CyclesPerElem, tan.CyclesPerElem/li.CyclesPerElem)},
	}
}

// accuracy measures every supported (function, method, interpolation)
// combination at LUT 2^12, 30 CORDIC iterations and degree 11, in the
// scratchpad unless the table outgrows it.
func accuracy(flt filter, profile string, cost pimsim.CostModel) []AccuracyRow {
	var out []AccuracyRow
	for _, fn := range core.Functions() {
		if !flt.fn(fn) {
			continue
		}
		lo, hi := fn.Domain()
		inputs := stats.RandomInputs(lo, hi, accuracyInputs, 0xACC)
		for _, m := range core.Methods() {
			for _, interp := range []bool{false, true} {
				if !m.Supports(fn) || interp && !m.SupportsInterp() {
					continue
				}
				p := core.Params{Method: m, Interp: interp, SizeLog2: 12, Iterations: 30, Degree: 11}
				pt, err := core.MeasureOperatorCost(fn, p, inputs, cost)
				if err != nil {
					p.Placement = pimsim.InMRAM
					pt, err = core.MeasureOperatorCost(fn, p, inputs, cost)
				}
				if k := keyOf(fn, p, profile); err == nil && flt.match(k) {
					out = append(out, AccuracyRow{k, pt.Errors, pt.CyclesPerElem})
				}
			}
		}
	}
	return out
}

// fig9Inputs are the three workloads' inputs at the paper's per-core
// load on the simulated cores.
func fig9Inputs() (bs []workloads.Option, sig, soft []float32) {
	act := cores * (workloads.FullActivationElements / workloads.FullDPUs)
	return workloads.GenOptions(cores*(workloads.FullBlackscholesElements/workloads.FullDPUs), 1),
		workloads.GenActivations(act, 2), workloads.GenActivations(act, 3)
}

// figure9 runs Fig. 1's activation comparison and Fig. 9's workloads:
// the modeled Xeon at 1 and 32 threads, then each PIM kit, with
// transfers projected to the full 2545-core system.
func figure9(d *Doc) error {
	fig1, err := workloads.SigmoidFig1(cores, workloads.FullActivationElements, workloads.LLUTIKit(12))
	if err != nil {
		return err
	}
	d.Fig1 = &Section[workloads.Fig1Comparison]{Profile: upmem, Cores: cores, Rows: []workloads.Fig1Comparison{fig1}}
	d.Fig9 = &Section[workloads.Result]{Profile: upmem, Cores: cores}
	bs, sig, soft := fig9Inputs()
	add := func(full int, modeled func(n, threads int) workloads.Result, pim func(workloads.Kit) (workloads.Result, error), kits ...workloads.Kit) {
		d.Fig9.Rows = append(d.Fig9.Rows, modeled(full, 1), modeled(full, 32))
		for _, kit := range kits {
			r, e := pim(kit)
			if err == nil && e != nil {
				err = fmt.Errorf("fig9 %s: %w", kit.Name, e)
			}
			d.Fig9.Rows = append(d.Fig9.Rows, workloads.ProjectFull(r, full))
		}
	}
	add(workloads.FullBlackscholesElements, workloads.BlackscholesCPUModeled,
		func(k workloads.Kit) (workloads.Result, error) { return workloads.BlackscholesPIM(cores, bs, k) },
		workloads.PolyBaselineKit(), workloads.MLUTIKit(10), workloads.LLUTIKit(12), workloads.FixedLLUTIKit(12))
	add(workloads.FullActivationElements, workloads.SigmoidCPUModeled,
		func(k workloads.Kit) (workloads.Result, error) { return workloads.SigmoidPIM(cores, sig, k) },
		workloads.PolyActivationKit(), workloads.MLUTIKit(10), workloads.LLUTIKit(12))
	add(workloads.FullActivationElements, workloads.SoftmaxCPUModeled,
		func(k workloads.Kit) (workloads.Result, error) { return workloads.SoftmaxPIM(cores, soft, k) },
		workloads.PolyActivationKit(), workloads.MLUTIKit(10), workloads.LLUTIKit(12))
	return err
}

// isaRows runs assembly on the internal/isa interpreter against cm's
// charges: single operations, then two L-LUT sine pipelines per element.
func isaRows(cm pimsim.CostModel) ([]ISARow, error) {
	var rows []ISARow
	m := isa.NewMachine(pimsim.NewMem("wram", pimsim.DefaultWRAMSize, 4), pimsim.NewMem("mram", pimsim.DefaultMRAMSize, 8), cm)
	f32 := func(x float32) int32 { return int32(math.Float32bits(x)) }
	var err error
	op := func(name, src, label string, charge int, regs ...int32) {
		p := isa.MustAssemble(src)
		m.Reset()
		copy(m.Regs[1:], regs)
		m.Regs[23] = int32(p.Len())
		if err == nil {
			err = m.RunFrom(p, label, 100000)
			rows = append(rows, ISARow{name, float64(m.IssueCycles()), float64(charge), float64(m.IssueCycles()) / float64(charge)})
		}
	}
	op("mul32 (8×8 mul_step products)", isa.Mul32Src, "mul32", cm.IMul, 12345, -678)
	op("fmul32 (softfloat multiply)", isa.FMul32Src, "fmul32", cm.FMul, f32(3.14159), f32(2.71828))
	op("fadd32 (softfloat add, cancellation path)", isa.FAdd32Src, "fadd32", cm.FAdd, f32(3.14159), f32(-2.71828))
	op("fdiv32 (restoring shift-subtract divide)", isa.FDiv32Src, "fdiv32", cm.FDiv, f32(3.14159), f32(2.71828))
	op("ldexp (exponent-field add)", isa.LdexpSrc, "ldexp", cm.Ldexp, f32(3.25), 10)
	op("f2q (float→Q3.28)", isa.F2QSrc, "f2q", cm.FToI, f32(3.25))
	op("q2f (Q3.28→float, CLZ normalize)", isa.Q2FSrc, "q2f", cm.IToF, int32(fixed.FromFloat64(3.25)))
	op("cordic step (64-bit funnel shifts + carries)", isa.CordicStepSrc, "cordic_step", 2*cm.I64Shr+4*cm.I64Add, 1<<8, 0, 0, 0, 0, 0, 5)

	const n = 10
	pipeline := func(name string, prog *isa.Program, label string, dpu *pimsim.DPU, eval func(*pimsim.Ctx, float32) float32, x0, step float64, regs ...int32) {
		mach := isa.NewMachineForDPU(dpu)
		var asm, samples uint64
		for x := x0; x < 2*math.Pi && err == nil; x += step {
			mach.Reset()
			mach.Regs[1] = f32(float32(x))
			copy(mach.Regs[2:], regs)
			err = mach.RunFrom(prog, label, 100000)
			asm += mach.IssueCycles()
			samples++
		}
		dpu.ResetCycles()
		ctx := dpu.NewCtx()
		for x := x0; x < 2*math.Pi; x += step {
			eval(ctx, float32(x))
		}
		s := float64(samples)
		rows = append(rows, ISARow{name, float64(asm) / s, float64(dpu.Cycles()) / s, float64(asm) / float64(dpu.Cycles())})
	}
	fixedTab, floatTab := must(lut.BuildFixedLLUT(math.Sin, 0, 2*math.Pi, n, false)), must(lut.BuildLLUT(math.Sin, 0, 2*math.Pi, n, true))
	fixedDPU, floatDPU := pimsim.NewDPU(0, cm, 16), pimsim.NewDPU(1, cm, 16)
	fixedDev, floatDev := must(fixedTab.Load(fixedDPU, pimsim.InWRAM)), must(floatTab.Load(floatDPU, pimsim.InWRAM))
	pipeline("fixed L-LUT sine pipeline (per element)", isa.ValidationProgram(), "sine_fixed", fixedDPU, fixedDev.EvalFloat,
		0.1, 0.37, 0, int32(fixedTab.P), int32(fixed.FracBits-n), int32(len(fixedTab.Entries)))
	pipeline("interpolated L-LUT sine pipeline (KT1)", isa.InterpValidationProgram(), "sine_llut_i", floatDPU, floatDev.Eval,
		0.05, 0.11, 0, n, int32(len(floatTab.Entries)))
	return rows, err
}

// must unwraps a build of constant, valid configuration.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
