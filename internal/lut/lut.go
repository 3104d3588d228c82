// Package lut implements TransPimLib's fuzzy lookup-table methods
// (§2.2.2, §3.2, §3.3.1): the multiplication-based M-LUT, the
// LDEXP-based L-LUT (float and Q3.28 fixed-point), the direct
// float-conversion D-LUT, and the combined DL-LUT, each with and
// without linear interpolation.
//
// Every method splits into a host side and a device side. The host
// side builds the table: it evaluates the reference function f (in
// float64) at the points selected by the pseudo-inverse a⁻¹ of the
// address-generation function — the only place a⁻¹ is ever used, which
// is why accuracy can be improved freely without touching lookup cost
// (§2.2.2). The device side implements a(x) with the operations a PIM
// core can afford and performs the (interpolated) lookup through a
// metering Ctx.
package lut

import (
	"fmt"
	"math"

	"transpimlib/internal/pimsim"
)

// Func is a reference function evaluated on the host during table
// generation, in double precision.
type Func func(float64) float64

// devF32 is a float32 array resident in a PIM memory.
type devF32 struct {
	place pimsim.Placement
	addr  int
	n     int
}

func loadF32Array(dpu *pimsim.DPU, place pimsim.Placement, vals []float32) (devF32, error) {
	mem := dpu.MemFor(place)
	addr, err := mem.Alloc(4 * len(vals))
	if err != nil {
		return devF32{}, err
	}
	mem.WriteF32s(addr, vals)
	return devF32{place: place, addr: addr, n: len(vals)}, nil
}

// get fetches element idx, charging a scratchpad load or an 8-byte DMA.
func (a devF32) get(ctx *pimsim.Ctx, idx int32) float32 {
	off := a.addr + 4*int(idx)
	if a.place == pimsim.InWRAM {
		return ctx.WramLoadF32(off)
	}
	return ctx.MramLoadF32(off)
}

// devI32 is an int32 (Q3.28) array resident in a PIM memory.
type devI32 struct {
	place pimsim.Placement
	addr  int
	n     int
}

func loadI32Array(dpu *pimsim.DPU, place pimsim.Placement, vals []int32) (devI32, error) {
	mem := dpu.MemFor(place)
	addr, err := mem.Alloc(4 * len(vals))
	if err != nil {
		return devI32{}, err
	}
	mem.WriteInt32s(addr, vals)
	return devI32{place: place, addr: addr, n: len(vals)}, nil
}

func (a devI32) get(ctx *pimsim.Ctx, idx int32) int32 {
	off := a.addr + 4*int(idx)
	if a.place == pimsim.InWRAM {
		return ctx.WramLoadI32(off)
	}
	return ctx.MramLoadI32(off)
}

// clampIdx clamps idx into [0, n-1], charging the two compare+select
// instructions the device executes.
func clampIdx(ctx *pimsim.Ctx, idx int32, n int) int32 {
	ctx.Charge(2)
	if idx < 0 {
		return 0
	}
	if idx >= int32(n) {
		return int32(n - 1)
	}
	return idx
}

// splitIntFrac splits a scaled lookup argument t into its integer part
// (toward -∞) and fractional remainder, both needed by interpolated
// L-LUT/D-LUT addressing. On the PIM core this is pure bit
// manipulation of the float32 pattern — extract the exponent, shift
// the mantissa, reassemble the fraction — costing ~14 integer
// instructions instead of the float→int→float round trip the M-LUT
// performs (the key saving of the L-LUT methods, §3.2.2).
func splitIntFrac(ctx *pimsim.Ctx, t float32) (int32, float32) {
	ctx.Charge(14)
	f := math.Floor(float64(t))
	return int32(f), float32(float64(t) - f)
}

// truncIndex truncates a scaled lookup argument toward -∞ with the
// same bit-level extraction, without assembling the fraction (~8
// integer instructions). Used by non-interpolated L-LUT lookups, whose
// rounding lives in a⁻¹ at build time (midpoint entries).
func truncIndex(ctx *pimsim.Ctx, t float32) int32 {
	ctx.Charge(8)
	return int32(math.Floor(float64(t)))
}

// lerpF32 computes l0 + (l1-l0)·Δ with one float multiply (§3.2.1).
func lerpF32(ctx *pimsim.Ctx, l0, l1, delta float32) float32 {
	d := ctx.FSub(l1, l0)
	return ctx.FAdd(l0, ctx.FMul(d, delta))
}

func validateRange(lo, hi float64) error {
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("lut: invalid input range [%v, %v]", lo, hi)
	}
	return nil
}
