package cordic

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"transpimlib/internal/pimsim"
)

// Placement re-exports pimsim.Placement for table locations.
type Placement = pimsim.Placement

// Table placement options (§4.2.1 observation 4 compares them).
const (
	InWRAM = pimsim.InWRAM
	InMRAM = pimsim.InMRAM
)

// Device is a set of CORDIC tables resident in a PIM core's memory,
// ready to be used by kernels on that core.
type Device struct {
	t       *Tables
	place   Placement
	addr    int // base of the packed (angle int64, shift int64) entries
	invGain int64
	// iter is one loop iteration's charge under the core's cost model,
	// recorded at Load; Rotate and Vector charge it once per call,
	// times the iteration count.
	iter pimsim.CostSig
}

// Load allocates and writes the iteration constants into the chosen
// memory of the PIM core. It returns an error when the memory cannot
// hold them (e.g. the 64-KB scratchpad).
func (t *Tables) Load(dpu *pimsim.DPU, place Placement) (*Device, error) {
	if place != InWRAM && place != InMRAM {
		return nil, fmt.Errorf("cordic: bad placement %d", place)
	}
	mem := dpu.MemFor(place)
	n := len(t.Angles)
	addr, err := mem.Alloc(16 * n) // angle + shift per entry, 8 bytes each
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		mem.PutInt64(addr+16*i, t.Angles[i])
		mem.PutInt64(addr+16*i+8, int64(t.Shifts[i]))
	}
	return &Device{t: t, place: place, addr: addr, invGain: t.InvGain,
		iter: recordIteration(dpu.Model(), place, t.Mode)}, nil
}

// recordIteration records what one loop iteration is charged under
// model: the (angle, shift) fetch as two 64-bit loads (two word-pair
// scratchpad loads, or two 8-byte DMAs from the DRAM bank), two 64-bit
// shifts, the sign test, the 64-bit add/subtracts of y and z and, in
// the circular and hyperbolic modes, of x, plus the loop overhead. The
// charge does not depend on the data, so the loops charge it n times
// per call instead of op by op.
func recordIteration(model pimsim.CostModel, place Placement, mode Mode) pimsim.CostSig {
	rec := pimsim.NewSigRecorder(model)
	for range 2 {
		if place == InWRAM {
			rec.WramLoadI64(0)
		} else {
			rec.MramLoadI64(0)
		}
	}
	rec.I64Shr(0, 0)
	rec.I64Shr(0, 0)
	rec.I64Cmp(0, 0)
	if mode != Linear {
		rec.I64Sub(0, 0)
	}
	rec.I64Add(0, 0)
	rec.I64Sub(0, 0)
	rec.Charge(2) // loop counter + branch
	return rec.TakeSig()
}

// Placement returns where the constants live.
func (d *Device) Placement() Placement { return d.place }

// entries returns the packed (angle, shift) words as one view of the
// calling context's memory, so each kernel reads the tables of the core
// it runs on: a lane its own, a shadow context the lane's, and a
// recorder its empty memory.
func (d *Device) entries(ctx *pimsim.Ctx) []byte {
	return ctx.DPU().MemFor(d.place).View(d.addr, 16*len(d.t.Shifts))
}

// Rotate runs rotation-mode CORDIC on the PIM core starting from
// (x0, y0) with target angle theta, steering each iteration by the
// sign of z, and charges the recorded iteration once per iteration.
func (d *Device) Rotate(ctx *pimsim.Ctx, x0, y0, theta int64) (x, y, z int64) {
	flip, keep := d.t.Mode.masks()
	x, y, z = x0, y0, theta
	for e := d.entries(ctx); len(e) >= 16; e = e[16:] {
		phi, s := int64(binary.LittleEndian.Uint64(e)), uint(binary.LittleEndian.Uint64(e[8:]))
		x, y, z = step(x, y, z, phi, s, z>>63, flip, keep)
	}
	ctx.ChargeSig(&d.iter, uint64(len(d.t.Shifts)))
	return x, y, z
}

// Vector runs vectoring-mode CORDIC on the PIM core, driving y toward
// zero and accumulating the rotation angle into z; charged like Rotate.
func (d *Device) Vector(ctx *pimsim.Ctx, x0, y0, z0 int64) (x, y, z int64) {
	flip, keep := d.t.Mode.masks()
	x, y, z = x0, y0, z0
	for e := d.entries(ctx); len(e) >= 16; e = e[16:] {
		phi, s := int64(binary.LittleEndian.Uint64(e)), uint(binary.LittleEndian.Uint64(e[8:]))
		x, y, z = step(x, y, z, phi, s, ^(y >> 63), flip, keep)
	}
	ctx.ChargeSig(&d.iter, uint64(len(d.t.Shifts)))
	return x, y, z
}

// SinCos computes (sin θ, cos θ) for θ ∈ [-π/2, π/2] in Q23.40 using
// circular rotation mode with the gain pre-folded into the initial
// vector (no final multiply). The device must be in Circular mode.
func (d *Device) SinCos(ctx *pimsim.Ctx, theta int64) (sin, cos int64) {
	x, y, _ := d.Rotate(ctx, d.invGain, 0, theta)
	return y, x
}

// SinhCosh computes (sinh θ, cosh θ) for θ within the hyperbolic
// convergence range (|θ| ≲ 1.11) using hyperbolic rotation mode. The
// device must be in Hyperbolic mode.
func (d *Device) SinhCosh(ctx *pimsim.Ctx, theta int64) (sinh, cosh int64) {
	x, y, _ := d.Rotate(ctx, d.invGain, 0, theta)
	return y, x
}

// Exp computes e^θ = cosh θ + sinh θ for θ in the convergence range.
func (d *Device) Exp(ctx *pimsim.Ctx, theta int64) int64 {
	sinh, cosh := d.SinhCosh(ctx, theta)
	return ctx.I64Add(sinh, cosh)
}

// Atanh computes artanh(y/x) via hyperbolic vectoring; used for
// ln(w) = 2·artanh((w−1)/(w+1)) (§2.2.3 range extension for log).
func (d *Device) Atanh(ctx *pimsim.Ctx, x0, y0 int64) int64 {
	_, _, z := d.Vector(ctx, x0, y0, 0)
	return z
}

// Ln computes ln(w) for w in (0, ~2.3] using hyperbolic vectoring:
// ln(w) = 2·artanh((w−1)/(w+1)).
func (d *Device) Ln(ctx *pimsim.Ctx, w int64) int64 {
	xp := ctx.I64Add(w, One)
	ym := ctx.I64Sub(w, One)
	z := d.Atanh(ctx, xp, ym)
	return ctx.I64Shl(z, 1)
}

// Sqrt computes √w for w in the vectoring convergence range
// (≈ [0.03, 2.3]) via hyperbolic vectoring of (w+¼, w−¼):
// x_n = K'·√((w+¼)² − (w−¼)²) = K'·√w, then removes the gain with one
// fixed multiply.
func (d *Device) Sqrt(ctx *pimsim.Ctx, w int64) int64 {
	quarter := One >> 2
	xp := ctx.I64Add(w, quarter)
	ym := ctx.I64Sub(w, quarter)
	x, _, _ := d.Vector(ctx, xp, ym, 0)
	return mulFix(ctx, x, d.invGain)
}

// Atan computes arctan(w) via circular vectoring of (1, w): the
// accumulated angle z converges to atan(w/1). The convergence range of
// the circular mode (Σφᵢ ≈ 1.743 rad) covers the whole arctangent
// image (±π/2), so no range extension is needed — arctan is listed for
// the circular mode in Table 1. The device must be in Circular mode.
func (d *Device) Atan(ctx *pimsim.Ctx, w int64) int64 {
	_, _, z := d.Vector(ctx, One, w, 0)
	return z
}

// MulLinear computes a·b with linear rotation mode (Table 1, last
// row); |b| must be < 2 for convergence. Provided for Table 1
// completeness.
func (d *Device) MulLinear(ctx *pimsim.Ctx, a, b int64) int64 {
	_, y, _ := d.Rotate(ctx, a, 0, b)
	return y
}

// DivLinear computes a/b with linear vectoring mode; |a/b| must be < 2
// for convergence. Provided for Table 1 completeness.
func (d *Device) DivLinear(ctx *pimsim.Ctx, a, b int64) int64 {
	_, _, z := d.Vector(ctx, b, a, 0)
	return z
}

// mulFix multiplies two Q23.40 values with an exact 128-bit
// intermediate, charging the 64-bit emulated multiply sequence (three
// 32×32 partial products on the 32-bit core).
func mulFix(ctx *pimsim.Ctx, a, b int64) int64 {
	ctx.Charge(3 * 34)
	return MulFixHost(a, b)
}

// --- unmetered host twins of the Device entry points ---
// These replay the device value paths exactly (RotateHost/VectorHost
// are bit-identical to Rotate/Vector), for the batch-evaluation fast
// path and tests.

// SinCosHostMany mirrors Device.SinCos over Q23.40 slices, with the
// iteration tables and the mode's step masks hoisted out of the
// per-element loop.
func (t *Tables) SinCosHostMany(thetas, sins, coss []int64) {
	sins = sins[:len(thetas)]
	coss = coss[:len(thetas)]
	shifts := t.Shifts
	angles := t.Angles[:len(shifts)]
	flip, keep := t.Mode.masks()
	for i, theta := range thetas {
		x, y, z := t.InvGain, int64(0), theta
		for j, s := range shifts {
			x, y, z = step(x, y, z, angles[j], s, z>>63, flip, keep)
		}
		sins[i] = y
		coss[i] = x
	}
}

// SinhCoshHost mirrors Device.SinhCosh.
func (t *Tables) SinhCoshHost(theta int64) (sinh, cosh int64) {
	x, y, _ := t.RotateHost(t.InvGain, 0, theta)
	return y, x
}

// ExpHost mirrors Device.Exp.
func (t *Tables) ExpHost(theta int64) int64 {
	sinh, cosh := t.SinhCoshHost(theta)
	return sinh + cosh
}

// LnHost mirrors Device.Ln.
func (t *Tables) LnHost(w int64) int64 {
	_, _, z := t.VectorHost(w+One, w-One, 0)
	return z << 1
}

// SqrtHost mirrors Device.Sqrt.
func (t *Tables) SqrtHost(w int64) int64 {
	quarter := One >> 2
	x, _, _ := t.VectorHost(w+quarter, w-quarter, 0)
	return MulFixHost(x, t.InvGain)
}

// AtanHost mirrors Device.Atan.
func (t *Tables) AtanHost(w int64) int64 {
	_, _, z := t.VectorHost(One, w, 0)
	return z
}

// MulFixHost is the unmetered Q23.40 multiply used by host-side code
// and tests.
func MulFixHost(a, b int64) int64 {
	neg := false
	if a < 0 {
		a, neg = -a, !neg
	}
	if b < 0 {
		b, neg = -b, !neg
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	r := int64(hi<<(64-FracBits) | lo>>FracBits)
	if neg {
		return -r
	}
	return r
}
