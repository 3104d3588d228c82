package fusion

import (
	"transpimlib/internal/core"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
)

// Exec is the per-(program, shard) execution state an engine shard
// keeps in its program-plan map, keyed by program ID: resolved
// operator tables for every Func node, the intermediate vector buffers that model MRAM residency, the
// reduction partial slots, and the runtime scalar values. One Exec
// serves one shard at a time (an engine shard runs one batch at a
// time); Bind rebinds it to each batch, growing its buffers to the
// batch size.
type Exec struct {
	c     *Compiled
	lanes int
	n     int // bound batch elements
	per   int // elements per lane (rank-padded chunk)

	// vec is indexed by node id: input nodes alias the caller's input
	// slices, the vector return node aliases the output slice, and every
	// other live computed vector gets an exec-owned buffer (its MRAM
	// stand-in — in the fused path these never cross the host boundary).
	vec   [][]float32
	owned [][]float32

	scalars []float32 // by node id, valid when ready
	ready   []bool
	sin     []float32 // bound runtime scalar inputs (kept for HostEval reset)

	partials [][]float32 // [redIdx][lane] in-flight reduction partials

	ops [][]*core.Operator // [fnIdx][lane] resolved transcendental tables

	reference bool // interpreted element-wise and reduction steps (see NewExec)
}

// NewExec builds execution state for a shard with the given lane count.
// A reference Exec runs every element-wise and reduction step through
// the interpreted per-element ops; its Func nodes follow their
// operators, which a reference engine builds without host kernels.
func (c *Compiled) NewExec(lanes int, reference bool) *Exec {
	ex := &Exec{
		c:         c,
		lanes:     lanes,
		reference: reference,
		vec:       make([][]float32, len(c.nodes)),
		owned:     make([][]float32, len(c.nodes)),
		scalars:   make([]float32, len(c.nodes)),
		ready:     make([]bool, len(c.nodes)),
		ops:       make([][]*core.Operator, len(c.funcs)),
	}
	ex.partials = make([][]float32, len(c.reduces))
	for i := range ex.partials {
		ex.partials[i] = make([]float32, lanes)
	}
	return ex
}

// Program returns the compiled program this Exec runs.
func (ex *Exec) Program() *Compiled { return ex.c }

// NumPhases returns the number of kernel launches per batch.
func (ex *Exec) NumPhases() int { return len(ex.c.phases) }

// SetOps installs the per-lane operator tables for Func node i (the
// engine resolves them through the shard's plans, one Spec per entry
// of FuncNodes).
func (ex *Exec) SetOps(i int, ops []*core.Operator) { ex.ops[i] = ops }

// Bind attaches a batch: the caller's input vectors (aliased, not
// copied — the host-staging convention), the runtime scalar values, the
// output slice (aliased for a vector result; ignored for a scalar
// result, which ScalarResult returns after the last Sync), the element
// count and the per-lane chunk size from the shard plan.
func (ex *Exec) Bind(inputs [][]float32, scalars []float32, out []float32, n, per int) {
	ex.n, ex.per = n, per
	ex.sin = scalars
	c := ex.c
	for i, nd := range c.nodes {
		if !c.live[i] || nd.scalar || nd.kind == nReduce {
			continue
		}
		switch {
		case nd.kind == nInput:
			ex.vec[i] = inputs[nd.idx]
		case i == c.ret:
			ex.vec[i] = out
		default:
			if cap(ex.owned[i]) < n {
				ex.owned[i] = make([]float32, n)
			}
			ex.vec[i] = ex.owned[i][:n]
		}
	}
	ex.resetScalars()
}

// resetScalars restores the pre-launch scalar state: constants folded,
// scalar inputs bound, host expressions over them evaluated, reduction
// results cleared. HostEval reuses it to restart after a faulted run.
func (ex *Exec) resetScalars() {
	c := ex.c
	for i := range ex.ready {
		ex.ready[i] = false
	}
	for i, nd := range c.nodes {
		if !c.live[i] || !nd.scalar {
			continue
		}
		switch {
		case c.foldable[i]:
			ex.scalars[i], ex.ready[i] = c.foldVal[i], true
		case nd.kind == nScalarInput:
			ex.scalars[i], ex.ready[i] = ex.sin[nd.idx], true
		}
	}
	ex.evalScalars()
	for r := range ex.partials {
		id := core.ReduceInit(c.nodes[c.reduces[r]].rop)
		for lane := range ex.partials[r] {
			ex.partials[r][lane] = id
		}
	}
}

// evalScalars computes every host scalar expression whose operands are
// ready. Node ids are topological, so one forward pass settles all.
func (ex *Exec) evalScalars() {
	c := ex.c
	for i, nd := range c.nodes {
		if !c.live[i] || !nd.scalar || ex.ready[i] {
			continue
		}
		switch nd.kind {
		case nBroadcast:
			if ex.ready[nd.a] {
				ex.scalars[i], ex.ready[i] = ex.scalars[nd.a], true
			}
		case nElem:
			if ex.ready[nd.a] && ex.ready[nd.b] {
				ex.scalars[i] = core.ElemApply(nd.eop, ex.scalars[nd.a], ex.scalars[nd.b])
				ex.ready[i] = true
			}
		}
	}
}

// RunLane executes phase phi's fused kernel loop for one lane's chunk
// through ctx, charging exactly what the device loop would: kernel
// entry, the broadcast-scalar reads, one MRAM stream-in per external
// vector operand, the per-element op work, the per-element streaming
// overhead, and one MRAM stream-out per materialized vector. Lanes own
// disjoint element windows and disjoint partial slots, so concurrent
// RunLane calls for different lanes are safe. A Func step evaluates
// through its operator's EvalBatchWith; element-wise and reduction
// steps run the core.ElemApplyMany/ReduceApplyMany slice kernels with
// bulk charges, or on a reference Exec the interpreted per-element ops
// — outputs and cycle totals are bit-identical either way.
func (ex *Exec) RunLane(ctx *pimsim.Ctx, phi, lane int, arena *lut.Scratch) {
	lo := lane * ex.per
	if lo >= ex.n {
		return
	}
	count := ex.per
	if lo+count > ex.n {
		count = ex.n - lo
	}
	c := ex.c
	ph := &c.phases[phi]
	fop := c.fop

	ctx.Charge(4)
	fop.ChargeScalarLoad(ctx, uint64(len(ph.scalarLoads)))
	for range ph.extVecIn {
		ctx.ChargeDMA(count * 4)
	}
	for _, st := range ph.steps {
		switch st.kind {
		case nFunc:
			xs := ex.vec[st.a][lo : lo+count]
			ex.ops[st.fnIdx][lane].EvalBatchWith(ctx, xs, ex.vec[st.node][lo:lo+count], arena)
		case nElem:
			ys := ex.vec[st.node][lo : lo+count]
			var as, bs []float32
			var sa, sb float32
			if c.nodes[st.a].scalar {
				sa = ex.scalars[st.a]
			} else {
				as = ex.vec[st.a][lo : lo+count]
			}
			if c.nodes[st.b].scalar {
				sb = ex.scalars[st.b]
			} else {
				bs = ex.vec[st.b][lo : lo+count]
			}
			if !ex.reference {
				core.ElemApplyMany(st.eop, ys, as, bs, sa, sb)
				fop.ChargeElem(ctx, st.eop, uint64(count))
			} else {
				av := func(i int) float32 {
					if as == nil {
						return sa
					}
					return as[i]
				}
				bv := func(i int) float32 {
					if bs == nil {
						return sb
					}
					return bs[i]
				}
				for i := 0; i < count; i++ {
					ys[i] = fop.ElemEval(ctx, st.eop, av(i), bv(i))
				}
			}
		case nReduce:
			xs := ex.vec[st.a][lo : lo+count]
			acc := core.ReduceInit(st.rop)
			if !ex.reference {
				acc = core.ReduceApplyMany(st.rop, acc, xs)
				fop.ChargeReduce(ctx, st.rop, uint64(count))
			} else {
				for _, x := range xs {
					acc = fop.ReduceEval(ctx, st.rop, acc, x)
				}
			}
			ex.partials[st.redIdx][lane] = acc
			fop.ChargeScalarStore(ctx, 1)
		}
	}
	ctx.ChargeSig(&ph.streamSig, uint64(count))
	for range ph.matOut {
		ctx.ChargeDMA(count * 4)
	}
}

// Sync closes phase phi on the host: gathers the phase's reduction
// partials (combining only lanes that held data, in lane order — the
// same order the per-op baseline combines, so scalars match bit for
// bit), evaluates the host scalar expressions that became computable,
// and returns the host↔PIM bytes the sync moved (gather in, broadcast
// back out).
func (ex *Exec) Sync(phi int) (gatherBytes, bcastBytes int) {
	c := ex.c
	ph := &c.phases[phi]
	if len(ph.reduces) > 0 {
		active := (ex.n + ex.per - 1) / ex.per
		if active > ex.lanes {
			active = ex.lanes
		}
		for _, r := range ph.reduces {
			rop := c.nodes[r.node].rop
			acc := core.ReduceInit(rop)
			for lane := 0; lane < active; lane++ {
				acc = core.ReduceApply(rop, acc, ex.partials[r.redIdx][lane])
			}
			ex.scalars[r.node], ex.ready[r.node] = acc, true
		}
		ex.evalScalars()
	}
	return 4 * ex.lanes * len(ph.reduces), 4 * ex.lanes * len(ph.bcastAfter)
}

// ScalarResult returns the program's scalar return value after the
// final Sync (only meaningful when ScalarResult() is true on the
// program).
func (ex *Exec) ScalarResult() float32 { return ex.scalars[ex.c.ret] }

// HostEval re-runs the whole bound batch sequentially on the host —
// the bottom rung of the recovery ladder — through the same RunLane as
// a device launch, with arena as every lane's scratch. lanes[k] is lane
// k's context: the engine passes contexts that read each lane's
// memories but charge a throwaway tally, so a Func node without a host
// kernel (WideRange trig, or any on a reference Exec) reads its own
// lane's tables through the interpreted path.
// State is reset first so a partially-faulted run leaves no residue,
// and the outputs land in the same bound slices, bit-identical to a
// clean device run.
func (ex *Exec) HostEval(lanes []*pimsim.Ctx, arena *lut.Scratch) {
	ex.resetScalars()
	for phi := range ex.c.phases {
		for lane := 0; lane < ex.lanes; lane++ {
			ex.RunLane(lanes[lane], phi, lane, arena)
		}
		ex.Sync(phi)
	}
}
