package cordic

import (
	"fmt"
	"math"

	"transpimlib/internal/pimsim"
)

// LUTAssist is the CORDIC+LUT hybrid of §3.3.2: the first lutBits
// iterations of a circular rotation are replaced by a single lookup of
// a pre-rotated vector (while still updating θ), and the remaining
// iterations run as ordinary CORDIC. This trades table memory against
// iteration count, interpolating between the pure-LUT and pure-CORDIC
// corners of the design space.
type LUTAssist struct {
	lutBits  int // k: table indexed by the top k bits of θ ∈ [0, 2)
	shiftAmt uint
	entries  int
	place    Placement
	addr     int // base of packed (x, y, φ) int64 triples
	tail     *Device

	// Host-side copies of the head-table triples, for the unmetered
	// SinCosHostMany mirror.
	hx, hy, hphi []int64
}

// lutAssistEntryBytes is the footprint of one head-table entry:
// (x, y, φ) in Q23.40.
const lutAssistEntryBytes = 24

// thetaMax bounds the supported input range, [0, π/2].
var thetaMax = FromFloat(math.Pi / 2)

// NewLUTAssist builds the hybrid for angles θ ∈ [0, π/2]: a head table
// with 2^lutBits-per-unit-interval density and tailIters remaining
// CORDIC iterations, loaded into the given memory of the PIM core.
func NewLUTAssist(dpu *pimsim.DPU, place Placement, lutBits, tailIters int) (*LUTAssist, error) {
	if lutBits < 2 || lutBits > 24 {
		return nil, fmt.Errorf("cordic: lutBits %d out of range [2, 24]", lutBits)
	}
	// The residual after the lookup is < 2^(1-k); tail iterations start
	// at index k-1 so their combined range covers it.
	start := lutBits - 1
	tailTables := NewTablesFrom(start, tailIters)
	tail, err := tailTables.Load(dpu, place)
	if err != nil {
		return nil, err
	}

	shiftAmt := uint(FracBits + 1 - lutBits) // index = θ >> shiftAmt, θ ∈ [0, 2)
	step := int64(1) << shiftAmt
	entries := int(thetaMax/step) + 2

	la := &LUTAssist{
		lutBits:  lutBits,
		shiftAmt: shiftAmt,
		entries:  entries,
		place:    place,
		tail:     tail,
	}

	mem := dpu.MemFor(place)
	la.addr, err = mem.Alloc(entries * lutAssistEntryBytes)
	if err != nil {
		return nil, err
	}
	invGain := 1 / tailTables.GainF
	la.hx = make([]int64, entries)
	la.hy = make([]int64, entries)
	la.hphi = make([]int64, entries)
	for i := 0; i < entries; i++ {
		phi := int64(i) << shiftAmt
		ang := ToFloat(phi)
		la.hx[i] = FromFloat(math.Cos(ang) * invGain)
		la.hy[i] = FromFloat(math.Sin(ang) * invGain)
		la.hphi[i] = phi
		mem.PutInt64(la.addr+lutAssistEntryBytes*i, la.hx[i])
		mem.PutInt64(la.addr+lutAssistEntryBytes*i+8, la.hy[i])
		mem.PutInt64(la.addr+lutAssistEntryBytes*i+16, phi)
	}
	return la, nil
}

// Constants returns how many constants the host generated: head-table
// entries and tail iteration constants.
func (la *LUTAssist) Constants() (head, tail int) { return la.entries, la.tail.t.Iterations() }

// TableBytes returns the PIM memory footprint: head table plus tail
// iteration constants.
func (la *LUTAssist) TableBytes() int {
	return la.entries*lutAssistEntryBytes + la.tail.t.TableBytes()
}

// TailIterations returns the number of CORDIC iterations run after the
// lookup.
func (la *LUTAssist) TailIterations() int { return la.tail.t.Iterations() }

// SinCos computes (sin θ, cos θ) for θ ∈ [0, π/2] in Q23.40: one
// shift to form the index, one 24-byte fetch of the pre-rotated
// vector, one subtract to update θ, then the tail iterations.
func (la *LUTAssist) SinCos(ctx *pimsim.Ctx, theta int64) (sin, cos int64) {
	idx := ctx.I64Shr(theta, la.shiftAmt)
	if idx < 0 {
		idx = 0
	}
	if int(idx) >= la.entries {
		idx = int64(la.entries - 1)
	}
	base := la.addr + lutAssistEntryBytes*int(idx)
	var x0, y0, phi int64
	if la.place == InWRAM {
		x0 = ctx.WramLoadI64(base)
		y0 = ctx.WramLoadI64(base + 8)
		phi = ctx.WramLoadI64(base + 16)
	} else {
		x0 = ctx.MramLoadI64(base)
		y0 = ctx.MramLoadI64(base + 8)
		phi = ctx.MramLoadI64(base + 16)
	}
	z0 := ctx.I64Sub(theta, phi)
	x, y, _ := la.tail.Rotate(ctx, x0, y0, z0)
	return y, x
}

// SinCosHostMany is the unmetered host twin of SinCos over Q23.40
// slices, bit-identical in value, with the head table and tail
// iteration tables hoisted out of the per-element loop.
func (la *LUTAssist) SinCosHostMany(thetas, sins, coss []int64) {
	sins = sins[:len(thetas)]
	coss = coss[:len(thetas)]
	hx, hy, hphi := la.hx, la.hy, la.hphi
	shifts := la.tail.t.Shifts
	angles := la.tail.t.Angles[:len(shifts)]
	flip, keep := Circular.masks()
	for i, theta := range thetas {
		idx := theta >> la.shiftAmt
		if idx < 0 {
			idx = 0
		}
		if int(idx) >= la.entries {
			idx = int64(la.entries - 1)
		}
		x, y, z := hx[idx], hy[idx], theta-hphi[idx]
		for j, s := range shifts {
			x, y, z = step(x, y, z, angles[j], s, z>>63, flip, keep)
		}
		sins[i] = y
		coss[i] = x
	}
}
