// Package pimsim simulates a generic UPMEM-like processing-in-memory
// system at the functional + cycle-cost level.
//
// The simulated machine follows the paper's generic PIM terminology
// (§2.1): a host CPU, PIM-enabled memory with one PIM core per DRAM
// bank, each core having exclusive access to its 64-MB DRAM bank
// (MRAM), a 64-KB scratchpad (WRAM), and running multiple PIM threads
// (tasklets) on a deeply pipelined, fine-grained multithreaded,
// in-order 32-bit RISC pipeline. Floating-point arithmetic and 32-bit
// integer multiplication/division are not native; they are emulated as
// multi-instruction sequences, which is what the CostModel encodes.
//
// The simulator is a *cost* simulator: kernels are ordinary Go
// functions that perform real arithmetic through a Ctx, and every Ctx
// operation charges the cycle cost the equivalent instruction sequence
// would take on the PIM core. This reproduces the relative cost
// structure that drives every conclusion in the paper (number of
// floating-point multiplies per lookup, iteration counts, DMA versus
// scratchpad placement) without an instruction-level ISA model.
package pimsim

// CostModel gives the cycle cost of each operation class at full
// pipeline utilization (one instruction issued per cycle; multi-cycle
// entries are emulated multi-instruction sequences).
//
// The default values follow the cost ordering reported by the PrIM
// characterization of the UPMEM architecture, which the paper relies
// on: native 32-bit integer ALU operations are single-cycle; 32-bit
// integer multiply/divide are emulated with the 8×8-bit multiplier
// (mul_step) and shift-subtract loops; floating-point operations are
// software-emulated with add < mul ≪ div; and transfers between MRAM
// and WRAM go through a DMA engine whose latency is overlapped with
// computation when enough tasklets are resident.
type CostModel struct {
	// Native integer ALU (32-bit add/sub/shift/logic/compare), moves,
	// and taken/untaken branches.
	IALU   int
	Move   int
	Branch int

	// Emulated 32-bit integer multiply and divide.
	IMul int
	IDiv int

	// 64-bit integer helpers on the 32-bit datapath.
	I64Add int // add/sub with carry: 2-3 instructions
	I64Shl int // variable 64-bit shift
	I64Shr int
	I64Mul int // 64-bit product of 32-bit halves (used by Q3.28 multiply)

	// Software-emulated IEEE-754 single precision.
	FAdd int
	FSub int
	FMul int
	FDiv int
	FNeg int // sign-bit flip: integer xor
	FCmp int // integer compare on massaged bits

	// Conversions.
	FToI int // float32 → int32 (round or truncate)
	IToF int // int32 → float32

	// TransPimLib's custom ldexp (C99): exponent-field integer add with
	// range checks (paper §3.2.2).
	Ldexp int
	// frexp-style exponent/mantissa split used by range extension.
	Frexp int

	// WRAM scratchpad access (native load/store).
	WRAMLoad  int
	WRAMStore int

	// MRAM DMA: the issuing instruction occupies the pipeline for
	// MRAMIssue cycles; the transfer itself occupies the DPU's DMA
	// engine for MRAMLatency + ceil(bytes×MRAMPerByte) cycles, which
	// overlaps with other tasklets' execution.
	MRAMIssue   int
	MRAMLatency int
	MRAMPerByte float64
}

// Default returns the cost model used throughout the reproduction. See
// the package comment and DESIGN.md §4 for the provenance of each
// constant.
func Default() CostModel {
	return CostModel{
		IALU:   1,
		Move:   1,
		Branch: 1,

		IMul: 32,
		IDiv: 56,

		I64Add: 3,
		I64Shl: 7,
		I64Shr: 7,
		I64Mul: 34,

		FAdd: 62,
		FSub: 62,
		FMul: 93,
		FDiv: 210,
		FNeg: 1,
		FCmp: 4,

		FToI: 28,
		IToF: 28,

		Ldexp: 12,
		Frexp: 10,

		WRAMLoad:  1,
		WRAMStore: 1,

		MRAMIssue:   2,
		MRAMLatency: 64,
		MRAMPerByte: 0.5,
	}
}

// OpClass identifies an operation class for per-kernel counting.
type OpClass int

// Operation classes tracked by the per-DPU counters.
const (
	OpIALU OpClass = iota
	OpIMul
	OpIDiv
	OpI64
	OpFAdd
	OpFMul
	OpFDiv
	OpFMisc // neg/cmp
	OpConv  // FToI / IToF
	OpLdexp
	OpFrexp
	OpWRAM
	OpMRAM
	OpCtrl // moves, branches, charged overhead
	numOpClasses
)

var opClassNames = [...]string{
	"ialu", "imul", "idiv", "i64", "fadd", "fmul", "fdiv", "fmisc",
	"conv", "ldexp", "frexp", "wram", "mram", "ctrl",
}

// NumOpClasses returns how many operation classes the counters track,
// for callers that index per-class accumulators by OpClass.
func NumOpClasses() OpClass { return numOpClasses }

// String returns a short lowercase mnemonic for the class.
func (c OpClass) String() string {
	if c < 0 || int(c) >= len(opClassNames) {
		return "op?"
	}
	return opClassNames[c]
}

// Counters accumulates per-class operation and cycle counts.
type Counters struct {
	Ops    [numOpClasses]uint64
	Cycles [numOpClasses]uint64
}

// Add merges other into c.
func (c *Counters) Add(other *Counters) {
	for i := range c.Ops {
		c.Ops[i] += other.Ops[i]
		c.Cycles[i] += other.Cycles[i]
	}
}

// addN adds n ops of class at the given per-op cycle cost.
func (c *Counters) addN(class OpClass, n uint64, cycles int) {
	c.Ops[class] += n
	c.Cycles[class] += n * uint64(cycles)
}

// TotalCycles returns the sum of cycles across all classes.
func (c *Counters) TotalCycles() uint64 {
	var t uint64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// TotalOps returns the total operation count across all classes.
func (c *Counters) TotalOps() uint64 {
	var t uint64
	for _, v := range c.Ops {
		t += v
	}
	return t
}

// HBMPIMLike returns a cost model for a Samsung-HBM-PIM-class machine
// (§2.1): the PIM unit is a floating-point SIMD pipeline, so FP add
// and multiply are native single-digit-cycle operations, while general
// integer work and division remain comparatively awkward. On such a
// machine the paper's central asymmetry — multiplies dominate LUT
// lookup cost — collapses, which is the architecture-exploration
// experiment the conclusion invites ("TransPimLib methods can be
// suitable for other current and future PIM architectures").
func HBMPIMLike() CostModel {
	cm := Default()
	cm.FAdd = 2
	cm.FSub = 2
	cm.FMul = 2
	cm.FDiv = 16
	cm.FToI = 4
	cm.IToF = 4
	cm.Ldexp = 2
	cm.Frexp = 2
	cm.IMul = 4 // MAD datapath reused for integer products
	return cm
}

// FutureFP32PIM returns a forward-looking profile: a logic-layer PIM
// core with a genuine FP32 unit (e.g. 3D-stacked designs, §5.1) but
// still modest integer/division hardware.
func FutureFP32PIM() CostModel {
	cm := Default()
	cm.FAdd = 4
	cm.FSub = 4
	cm.FMul = 6
	cm.FDiv = 24
	cm.FToI = 6
	cm.IToF = 6
	cm.Ldexp = 3
	cm.Frexp = 3
	return cm
}

// Profiles maps profile names to cost models, for the harness flags.
func Profiles() map[string]CostModel {
	return map[string]CostModel{
		"upmem":   Default(),
		"hbm-pim": HBMPIMLike(),
		"fp32":    FutureFP32PIM(),
	}
}
