package core

import (
	"math"
	"testing"
)

// FuzzElemApplyMany cross-checks the element-wise slice kernel against
// per-element ElemApply in all three operand shapes, over arbitrary
// operand bit patterns. The vectors alternate the two operands, so the
// vector-vector shape also meets each pair in both orders.
func FuzzElemApplyMany(f *testing.F) {
	f.Add(uint8(ElemAdd), uint32(0x7fc00000), uint32(0xffc00000), 3)
	f.Add(uint8(ElemMul), uint32(0x7f800001), uint32(0xffa00000), 8)
	f.Add(uint8(ElemMax), uint32(0x80000000), uint32(0x00000000), 2)
	f.Add(uint8(ElemSub), uint32(0x7f800000), uint32(0x7f800000), 1)
	f.Add(uint8(ElemDiv), uint32(0x00000000), uint32(0x80000000), 5)
	f.Fuzz(func(t *testing.T, opIn uint8, aBits, bBits uint32, n int) {
		op := ElemOp(opIn % uint8(NumElemOps))
		if n < 0 {
			n = -n
		}
		n %= 64
		a, b := math.Float32frombits(aBits), math.Float32frombits(bBits)
		as := make([]float32, n)
		bs := make([]float32, n)
		for i := range as {
			as[i], bs[i] = a, b
			if i%2 == 1 {
				as[i], bs[i] = b, a
			}
		}
		ys := make([]float32, n)
		for _, sh := range []struct {
			name   string
			as, bs []float32
		}{{"vector-vector", as, bs}, {"vector-scalar", as, nil}, {"scalar-vector", nil, bs}} {
			ElemApplyMany(op, ys, sh.as, sh.bs, a, b)
			for i, y := range ys {
				x, z := a, b
				if sh.as != nil {
					x = sh.as[i]
				}
				if sh.bs != nil {
					z = sh.bs[i]
				}
				if want := ElemApply(op, x, z); math.Float32bits(y) != math.Float32bits(want) {
					t.Fatalf("%v %s [%d] (%#x, %#x) = %#x, ElemApply %#x", op, sh.name, i,
						math.Float32bits(x), math.Float32bits(z), math.Float32bits(y), math.Float32bits(want))
				}
			}
		}
	})
}
