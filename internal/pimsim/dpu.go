package pimsim

import (
	"fmt"
	"math"

	"transpimlib/internal/fixed"
	"transpimlib/internal/fpbits"
)

// Architectural constants of the simulated PIM core, matching the
// UPMEM DPU (§2.1 of the paper).
const (
	DefaultMRAMSize = 64 << 20 // 64 MB DRAM bank per PIM core
	DefaultWRAMSize = 64 << 10 // 64 KB scratchpad per PIM core
	DefaultIRAMSize = 24 << 10 // 24 KB instruction memory (informational)

	// PipelineDepth is the minimum issue distance, in cycles, between
	// two instructions of the same tasklet (the UPMEM "revolver"
	// pipeline needs ≥11 resident tasklets for full throughput).
	PipelineDepth = 11

	// DefaultTasklets is the number of PIM threads per core used in the
	// paper's experiments (§4.3: "16 PIM threads each").
	DefaultTasklets = 16

	// DefaultClockHz is the PIM core clock (350 MHz, §4.1).
	DefaultClockHz = 350e6
)

// DPU is one simulated PIM core together with its private memories and
// cycle/operation accounting.
type DPU struct {
	ID   int
	MRAM *Mem
	WRAM *Mem

	model    CostModel
	tasklets int

	// Accounting. A Ctx method counts one op of its kind in tally;
	// Charge(n) also adds n to ctrlCycles. The per-class counters and
	// the issue cycles are derived from these when read (fold). The
	// fields stay flat rather than an embedded acct: an embedded field
	// costs every Ctx charging method one inliner unit, which is enough
	// to push Frexp past the inlining budget.
	tally      [numKinds]uint64
	ctrlCycles uint64
	bulk       Counters // pre-aggregated charges (ChargeOps, ChargeSig)
	slow       uint64   // issue cycles added by injected straggler verdicts
	dmaCycles  uint64   // DMA-engine busy cycles (MRAM transfers)
}

// opKind is one distinct (class, cost) charge a Ctx method makes. The
// cost is a constant of the core's CostModel, so the simulator counts
// ops per kind, one increment per simulated instruction, and fold
// turns the tally into per-class ops and cycles when they are read.
type opKind uint8

const (
	kIALU opKind = iota
	kQAbs        // 2·IALU: compare and negate
	kIMul
	kIDiv
	kQDiv // IDiv+4: the 64-bit shift-divide
	kBranch
	kMove
	kCtrl   // Charge(n): n cycles, summed in ctrlCycles
	kI64Add // also sub, neg and compare
	kI64Shl
	kI64Shr
	kI64Mul // the Q3.28 multiply
	kFAdd
	kFSub // charged to OpFAdd at its own cost
	kFMul
	kFDiv
	kFNeg // also abs
	kFCmp
	kFToI
	kIToF
	kLdexp
	kFrexp
	kF32ToFix64 // FToI conversion + I64Shl scaling
	kFix64ToF32 // I64Shr scaling + IToF conversion
	kWRAMLoad
	kWRAMStore
	kWRAMLoad64 // 2·WRAMLoad: two word loads
	kMRAM       // MRAMIssue; the DMA cycles go to dmaCycles
	numKinds
)

// acct is a copy of a core's raw accounting: the fields IssueCycles,
// DMACycles and Counters derive from. A launch marks each lane's acct
// before its kernel runs and folds the difference once afterwards.
// Every field is a sum, so folding after − before equals fold(after) −
// fold(before) exactly in uint64 arithmetic.
type acct struct {
	tally      [numKinds]uint64
	ctrlCycles uint64
	bulk       Counters
	slow       uint64
	dmaCycles  uint64
}

// mark copies the core's raw accounting.
func (d *DPU) mark() acct {
	return acct{tally: d.tally, ctrlCycles: d.ctrlCycles, bulk: d.bulk, slow: d.slow, dmaCycles: d.dmaCycles}
}

// fold derives the per-class counters from the core's accounting.
// Counters are read once per launch or per recorded signature, so this
// stays off the per-op path.
func (d *DPU) fold() Counters { return foldTally(&d.tally, d.ctrlCycles, d.bulk, &d.model) }

// since folds the accounting charged after mark m into one launch's
// per-class counters and its issue and DMA cycles.
func (d *DPU) since(m *acct) (c Counters, issue, dma uint64) {
	var t [numKinds]uint64
	for k := range t {
		t[k] = d.tally[k] - m.tally[k]
	}
	bulk := d.bulk
	for i := range bulk.Ops {
		bulk.Ops[i] -= m.bulk.Ops[i]
		bulk.Cycles[i] -= m.bulk.Cycles[i]
	}
	c = foldTally(&t, d.ctrlCycles-m.ctrlCycles, bulk, &d.model)
	return c, c.TotalCycles() + d.slow - m.slow, d.dmaCycles - m.dmaCycles
}

// foldTally turns a kind tally, the control cycles Charge added and the
// bulk-merged charges into per-class counters under cost model m.
func foldTally(t *[numKinds]uint64, ctrlCycles uint64, c Counters, m *CostModel) Counters {
	c.addN(OpIALU, t[kIALU], m.IALU)
	c.addN(OpIALU, t[kQAbs], 2*m.IALU)
	c.addN(OpIMul, t[kIMul], m.IMul)
	c.addN(OpIDiv, t[kIDiv], m.IDiv)
	c.addN(OpIDiv, t[kQDiv], m.IDiv+4)
	c.addN(OpCtrl, t[kBranch], m.Branch)
	c.addN(OpCtrl, t[kMove], m.Move)
	c.Ops[OpCtrl] += t[kCtrl]
	c.Cycles[OpCtrl] += ctrlCycles
	c.addN(OpI64, t[kI64Add], m.I64Add)
	c.addN(OpI64, t[kI64Shl]+t[kF32ToFix64], m.I64Shl)
	c.addN(OpI64, t[kI64Shr]+t[kFix64ToF32], m.I64Shr)
	c.addN(OpI64, t[kI64Mul], m.I64Mul)
	c.addN(OpFAdd, t[kFAdd], m.FAdd)
	c.addN(OpFAdd, t[kFSub], m.FSub)
	c.addN(OpFMul, t[kFMul], m.FMul)
	c.addN(OpFDiv, t[kFDiv], m.FDiv)
	c.addN(OpFMisc, t[kFNeg], m.FNeg)
	c.addN(OpFMisc, t[kFCmp], m.FCmp)
	c.addN(OpConv, t[kFToI]+t[kF32ToFix64], m.FToI)
	c.addN(OpConv, t[kIToF]+t[kFix64ToF32], m.IToF)
	c.addN(OpLdexp, t[kLdexp], m.Ldexp)
	c.addN(OpFrexp, t[kFrexp], m.Frexp)
	c.addN(OpWRAM, t[kWRAMLoad], m.WRAMLoad)
	c.addN(OpWRAM, t[kWRAMStore], m.WRAMStore)
	c.addN(OpWRAM, t[kWRAMLoad64], 2*m.WRAMLoad)
	c.addN(OpMRAM, t[kMRAM], m.MRAMIssue)
	return c
}

// NewDPU creates a PIM core with the given cost model and resident
// tasklet count.
func NewDPU(id int, model CostModel, tasklets int) *DPU {
	if tasklets <= 0 {
		tasklets = DefaultTasklets
	}
	return &DPU{
		ID:       id,
		MRAM:     NewMem(fmt.Sprintf("mram[%d]", id), DefaultMRAMSize, 8),
		WRAM:     NewMem(fmt.Sprintf("wram[%d]", id), DefaultWRAMSize, 4),
		model:    model,
		tasklets: tasklets,
	}
}

// Model returns the DPU's cost model.
func (d *DPU) Model() CostModel { return d.model }

// Tasklets returns the number of resident PIM threads.
func (d *DPU) Tasklets() int { return d.tasklets }

// IssueCycles returns the raw pipeline-issue cycles charged so far,
// before the pipeline-occupancy correction: the counters' total plus
// any cycles an injected straggler verdict added.
func (d *DPU) IssueCycles() uint64 {
	c := d.fold()
	return c.TotalCycles() + d.slow
}

// DMACycles returns the cycles the DMA engine has been busy.
func (d *DPU) DMACycles() uint64 { return d.dmaCycles }

// Cycles returns the modeled total execution cycles:
//
//	max(issue × max(1, PipelineDepth/tasklets), dma)
//
// With ≥11 tasklets the pipeline sustains one instruction per cycle, so
// total cycles equal charged issue cycles; with fewer tasklets the
// pipeline stalls between instructions of the same thread. DMA latency
// is overlapped with execution and only surfaces when the DMA engine is
// the bottleneck — which is how the paper's observation that MRAM- and
// WRAM-resident LUTs perform alike (§4.2.1, observation 4) emerges.
func (d *DPU) Cycles() uint64 {
	return ClosedFormCycles(d.IssueCycles(), d.dmaCycles, d.tasklets)
}

// Seconds converts Cycles to wall time at the given core clock.
func (d *DPU) Seconds(clockHz float64) float64 {
	return float64(d.Cycles()) / clockHz
}

// Counters returns the per-class operation counters.
func (d *DPU) Counters() Counters { return d.fold() }

// ResetCycles zeroes all cycle and operation accounting but leaves
// memory contents intact (like rereading a hardware counter).
func (d *DPU) ResetCycles() {
	d.tally = [numKinds]uint64{}
	d.ctrlCycles = 0
	d.bulk = Counters{}
	d.slow = 0
	d.dmaCycles = 0
}

// Ctx is the execution context a kernel uses on a DPU. Every method
// both performs the real computation and charges the cycle cost of the
// equivalent instruction sequence on the PIM core.
//
// A Ctx is not safe for concurrent use; a kernel runs single-threaded
// per DPU and models tasklet-level parallelism through the DPU's
// pipeline-occupancy correction.
type Ctx struct {
	d *DPU

	// dma is the reusable staging buffer for MramRead/MramWrite, so the
	// simulated bulk DMAs do not allocate on every call.
	dma []byte
}

// NewCtx returns an execution context for d.
func (d *DPU) NewCtx() *Ctx { return &Ctx{d: d} }

// DPU returns the core this context executes on.
func (c *Ctx) DPU() *DPU { return c.d }

// charge counts one op of kind k.
func (c *Ctx) charge(k opKind) { c.d.tally[k]++ }

// Charge accounts n cycles of control overhead (loop bookkeeping,
// address arithmetic folded into a macro-op, …) as one OpCtrl op.
func (c *Ctx) Charge(n int) {
	c.charge(kCtrl)
	c.d.ctrlCycles += uint64(n)
}

// CycleCount returns the DPU's current modeled cycle count; kernels use
// it like the UPMEM hardware performance counter (§4.1.1).
func (c *Ctx) CycleCount() uint64 { return c.d.Cycles() }

// --- 32-bit integer ops (native, single cycle) ---

// IAdd returns a+b.
func (c *Ctx) IAdd(a, b int32) int32 { c.charge(kIALU); return a + b }

// ISub returns a-b.
func (c *Ctx) ISub(a, b int32) int32 { c.charge(kIALU); return a - b }

// IShl returns a<<s.
func (c *Ctx) IShl(a int32, s uint) int32 { c.charge(kIALU); return a << s }

// IShr returns the arithmetic shift a>>s.
func (c *Ctx) IShr(a int32, s uint) int32 { c.charge(kIALU); return a >> s }

// IUShr returns the logical shift a>>s.
func (c *Ctx) IUShr(a uint32, s uint) uint32 { c.charge(kIALU); return a >> s }

// IAnd returns a&b.
func (c *Ctx) IAnd(a, b int32) int32 { c.charge(kIALU); return a & b }

// IOr returns a|b.
func (c *Ctx) IOr(a, b int32) int32 { c.charge(kIALU); return a | b }

// IXor returns a^b.
func (c *Ctx) IXor(a, b int32) int32 { c.charge(kIALU); return a ^ b }

// ICmp compares a and b, returning -1/0/+1.
func (c *Ctx) ICmp(a, b int32) int {
	c.charge(kIALU)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// IMul returns a*b through the emulated 32-bit multiply.
func (c *Ctx) IMul(a, b int32) int32 { c.charge(kIMul); return a * b }

// IDiv returns a/b through the emulated 32-bit divide.
func (c *Ctx) IDiv(a, b int32) int32 { c.charge(kIDiv); return a / b }

// Branch accounts a conditional branch.
func (c *Ctx) Branch() { c.charge(kBranch) }

// Move accounts a register move.
func (c *Ctx) Move() { c.charge(kMove) }

// --- 64-bit integer ops (multi-instruction on the 32-bit datapath) ---

// I64Add returns a+b on the 64-bit emulated path.
func (c *Ctx) I64Add(a, b int64) int64 { c.charge(kI64Add); return a + b }

// I64Sub returns a-b on the 64-bit emulated path.
func (c *Ctx) I64Sub(a, b int64) int64 { c.charge(kI64Add); return a - b }

// I64Shl returns a<<s on the 64-bit emulated path.
func (c *Ctx) I64Shl(a int64, s uint) int64 { c.charge(kI64Shl); return a << s }

// I64Shr returns the arithmetic shift a>>s on the 64-bit emulated path.
func (c *Ctx) I64Shr(a int64, s uint) int64 { c.charge(kI64Shr); return a >> s }

// I64Neg returns -a.
func (c *Ctx) I64Neg(a int64) int64 { c.charge(kI64Add); return -a }

// I64Cmp compares a and b, returning -1/0/+1.
func (c *Ctx) I64Cmp(a, b int64) int {
	c.charge(kI64Add)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// --- Q3.28 fixed-point ops ---

// QAdd returns a+b; a native integer add.
func (c *Ctx) QAdd(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(kIALU); return a.Add(b) }

// QSub returns a-b; a native integer subtract.
func (c *Ctx) QSub(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(kIALU); return a.Sub(b) }

// QMul returns the fixed-point product, charged as the emulated 64-bit
// multiply sequence — the paper's "fixed-point multiplications
// [significantly cheaper] than floating-point multiplications" (§4.2.1).
func (c *Ctx) QMul(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(kI64Mul); return a.Mul(b) }

// QAbs returns |a| with saturation (Abs(Min) = Max), charged as the
// compare-and-negate pair.
func (c *Ctx) QAbs(a fixed.Q3_28) fixed.Q3_28 { c.charge(kQAbs); return a.Abs() }

// QDiv returns the fixed-point quotient, charged as the emulated
// 64-bit shift-divide sequence.
func (c *Ctx) QDiv(a, b fixed.Q3_28) fixed.Q3_28 { c.charge(kQDiv); return a.Div(b) }

// QShr returns a>>s.
func (c *Ctx) QShr(a fixed.Q3_28, s uint) fixed.Q3_28 { c.charge(kIALU); return a.Shr(s) }

// QShl returns a<<s.
func (c *Ctx) QShl(a fixed.Q3_28, s uint) fixed.Q3_28 { c.charge(kIALU); return a.Shl(s) }

// QFromF converts float32 → Q3.28 (an FToI-class conversion).
func (c *Ctx) QFromF(f float32) fixed.Q3_28 {
	c.charge(kFToI)
	return fixed.FromFloat32(f)
}

// QToF converts Q3.28 → float32 (an IToF-class conversion).
func (c *Ctx) QToF(q fixed.Q3_28) float32 {
	c.charge(kIToF)
	return q.Float32()
}

// --- software floating point ---

// FAdd returns a+b through the emulated float path.
func (c *Ctx) FAdd(a, b float32) float32 { c.charge(kFAdd); return a + b }

// FSub returns a-b through the emulated float path.
func (c *Ctx) FSub(a, b float32) float32 { c.charge(kFSub); return a - b }

// FMul returns a*b through the emulated float path. The explicit
// conversion rounds the product, so an inlined caller's next FAdd or
// FSub cannot fuse with it into one FMA (Go may fuse x*y ± z otherwise,
// and does on arm64).
func (c *Ctx) FMul(a, b float32) float32 { c.charge(kFMul); return float32(a * b) }

// FDiv returns a/b through the emulated float path.
func (c *Ctx) FDiv(a, b float32) float32 { c.charge(kFDiv); return a / b }

// FNeg returns -a (a one-instruction sign-bit flip).
func (c *Ctx) FNeg(a float32) float32 { c.charge(kFNeg); return -a }

// FAbs returns |a| (a one-instruction mask).
func (c *Ctx) FAbs(a float32) float32 {
	c.charge(kFNeg)
	return fpbits.FromBits(fpbits.Bits(a) &^ fpbits.SignMask)
}

// FCmp compares a and b, returning -1/0/+1.
func (c *Ctx) FCmp(a, b float32) int {
	c.charge(kFCmp)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// FToIRound converts a float32 to the nearest int32 (ties to even).
func (c *Ctx) FToIRound(a float32) int32 {
	c.charge(kFToI)
	return RoundToEven32(a)
}

// FToITrunc converts a float32 to int32 truncating toward zero.
func (c *Ctx) FToITrunc(a float32) int32 { c.charge(kFToI); return int32(a) }

// FToIFloor converts a float32 to int32 rounding toward -∞.
func (c *Ctx) FToIFloor(a float32) int32 {
	c.charge(kFToI)
	return FloorToInt32(a)
}

// IToF converts an int32 to float32.
func (c *Ctx) IToF(a int32) float32 { c.charge(kIToF); return float32(a) }

// Ldexp returns f×2ⁿ through TransPimLib's custom C99 ldexp (§3.2.2):
// integer manipulation of the exponent field.
func (c *Ctx) Ldexp(f float32, n int) float32 {
	c.charge(kLdexp)
	return fpbits.Ldexp(f, n)
}

// Frexp splits f into mantissa ∈ [0.5,1) and exponent; the integer
// bit-field split used by range extension (§2.2.3).
func (c *Ctx) Frexp(f float32) (float32, int) {
	c.charge(kFrexp)
	return fpbits.Frexp(f)
}

// FBits exposes the raw bit pattern (a free reinterpretation on
// hardware; charged as a move).
func (c *Ctx) FBits(f float32) uint32 { c.charge(kMove); return fpbits.Bits(f) }

// FFromBits reinterprets bits as float32 (charged as a move).
func (c *Ctx) FFromBits(b uint32) float32 { c.charge(kMove); return fpbits.FromBits(b) }

// F32ToFix64 converts a float32 to a 64-bit fixed-point value with the
// given number of fractional bits, charged as a float→int conversion
// plus the 64-bit scaling shifts.
func (c *Ctx) F32ToFix64(f float32, frac uint) int64 {
	c.charge(kF32ToFix64)
	return int64(float64(f) * float64(uint64(1)<<frac))
}

// Fix64ToF32 converts a 64-bit fixed-point value back to float32,
// charged as the 64-bit scaling shift plus an int→float conversion.
func (c *Ctx) Fix64ToF32(v int64, frac uint) float32 {
	c.charge(kFix64ToF32)
	return float32(float64(v) / float64(uint64(1)<<frac))
}

// --- memory access ---

// WramLoadF32 loads a float32 from the scratchpad.
func (c *Ctx) WramLoadF32(addr int) float32 {
	c.charge(kWRAMLoad)
	return c.d.WRAM.Float32(addr)
}

// WramStoreF32 stores a float32 to the scratchpad.
func (c *Ctx) WramStoreF32(addr int, v float32) {
	c.charge(kWRAMStore)
	c.d.WRAM.PutFloat32(addr, v)
}

// WramLoadI32 loads an int32 from the scratchpad.
func (c *Ctx) WramLoadI32(addr int) int32 {
	c.charge(kWRAMLoad)
	return c.d.WRAM.Int32(addr)
}

// WramStoreI32 stores an int32 to the scratchpad.
func (c *Ctx) WramStoreI32(addr int, v int32) {
	c.charge(kWRAMStore)
	c.d.WRAM.PutInt32(addr, v)
}

// WramLoadI64 loads an int64 from the scratchpad (two word accesses).
func (c *Ctx) WramLoadI64(addr int) int64 {
	c.charge(kWRAMLoad64)
	return c.d.WRAM.Int64(addr)
}

// MramLoadF32 loads a float32 from the DRAM bank through the DMA
// engine. The issuing instruction occupies the pipeline briefly; the
// transfer occupies the DMA engine, overlapped with other tasklets.
func (c *Ctx) MramLoadF32(addr int) float32 {
	c.mramAccess(8) // minimum DMA granularity is 8 bytes
	return c.d.MRAM.Float32(addr)
}

// MramStoreF32 stores a float32 to the DRAM bank through the DMA engine.
func (c *Ctx) MramStoreF32(addr int, v float32) {
	c.mramAccess(8)
	c.d.MRAM.PutFloat32(addr, v)
}

// MramLoadI32 loads an int32 from the DRAM bank.
func (c *Ctx) MramLoadI32(addr int) int32 {
	c.mramAccess(8)
	return c.d.MRAM.Int32(addr)
}

// MramLoadI64 loads an int64 from the DRAM bank.
func (c *Ctx) MramLoadI64(addr int) int64 {
	c.mramAccess(8)
	return c.d.MRAM.Int64(addr)
}

// MramRead models a bulk DMA of n bytes (a kernel streaming its operand
// chunk from the DRAM bank into the scratchpad, §4.1.1) and copies the
// bytes into the scratchpad at wramAddr.
func (c *Ctx) MramRead(mramAddr, wramAddr, n int) {
	c.mramAccess(n)
	buf := c.dmaBuf(n)
	c.d.MRAM.Read(mramAddr, buf)
	c.d.WRAM.Write(wramAddr, buf)
}

// MramWrite models a bulk DMA of n bytes from scratchpad to DRAM bank.
func (c *Ctx) MramWrite(wramAddr, mramAddr, n int) {
	c.mramAccess(n)
	buf := c.dmaBuf(n)
	c.d.WRAM.Read(wramAddr, buf)
	c.d.MRAM.Write(mramAddr, buf)
}

// dmaBuf returns the Ctx's staging buffer sized to n bytes, growing it
// when a larger DMA comes through. The contents are fully overwritten
// by the caller before use.
func (c *Ctx) dmaBuf(n int) []byte {
	if cap(c.dma) < n {
		c.dma = make([]byte, n)
	}
	return c.dma[:n]
}

func (c *Ctx) mramAccess(bytes int) {
	c.charge(kMRAM)
	m := &c.d.model
	c.d.dmaCycles += uint64(m.MRAMLatency) + uint64(float64(bytes)*m.MRAMPerByte)
}

// RoundToEven32 converts a float32 to the nearest int32, ties to even,
// matching the conversion sequence the software float library performs.
// It is the unmetered value function behind Ctx.FToIRound, exported so
// host-side mirrors of device kernels reproduce the exact conversion.
//
// Out-of-range inputs saturate, as a soft-float float→int conversion
// (compiler-rt's __fixsfsi) does: below −2³¹ to MinInt32, at or above
// 2³¹ and NaN to MaxInt32. In range, the float64 round is exact and
// branch-free (ROUNDSD on amd64 with SSE4.1, FRINTN on arm64), so hot
// loops over random inputs do not mispredict on the fraction.
func RoundToEven32(a float32) int32 {
	if a >= -(1<<31) && a < 1<<31 {
		return int32(math.RoundToEven(float64(a)))
	}
	if a < 0 {
		return math.MinInt32
	}
	return math.MaxInt32
}

// FloorToInt32 converts a float32 to int32 rounding toward -∞; the
// unmetered value function behind Ctx.FToIFloor.
func FloorToInt32(a float32) int32 {
	i := int32(a)
	if float32(i) > a {
		i--
	}
	return i
}

// Placement selects which PIM memory holds a lookup table or constant
// array: the 64-KB scratchpad or the core's DRAM bank. §4.2.1
// (observation 4) compares the two.
type Placement int

// Table placement options.
const (
	InWRAM Placement = iota // scratchpad
	InMRAM                  // DRAM bank
)

// String returns the placement name.
func (p Placement) String() string {
	if p == InWRAM {
		return "wram"
	}
	return "mram"
}

// MemFor returns the DPU memory corresponding to the placement.
func (d *DPU) MemFor(p Placement) *Mem {
	if p == InWRAM {
		return d.WRAM
	}
	return d.MRAM
}

// ChargeDMA accounts a bulk MRAM↔WRAM DMA of the given size without
// moving bytes — for kernels that stream operand chunks through the
// scratchpad but keep their working data in the host-side arrays.
func (c *Ctx) ChargeDMA(bytes int) { c.mramAccess(bytes) }

// LoadStreamedF32 reads a float32 the kernel previously streamed into
// the scratchpad with a bulk DMA: charged as a scratchpad load, read
// from the DRAM-bank backing store so the data is not duplicated.
func (c *Ctx) LoadStreamedF32(m *Mem, addr int) float32 {
	c.charge(kWRAMLoad)
	return m.Float32(addr)
}

// StoreStreamedF32 is the symmetric scratchpad store for results that
// a later bulk DMA writes back to the DRAM bank.
func (c *Ctx) StoreStreamedF32(m *Mem, addr int, v float32) {
	c.charge(kWRAMStore)
	m.PutFloat32(addr, v)
}
