//go:build !race

// The race detector's sync.Pool drops a random share of the values put
// back, so under -race allocation counts vary from run to run and say
// nothing about the code. The bounds in this file build only without
// it.

package core

import (
	"fmt"
	"testing"

	"transpimlib/internal/lut"
)

// TestEvalBatchWithAllocs: every operator's host kernel runs in the
// caller's arena, pre-grown the way the engine grows each lane's, so a
// 256-element batch allocates nothing. It covers every supported
// (function, method, interp) at the default size, with the boundary
// and guard-class inputs of diffInputs among the elements.
func TestEvalBatchWithAllocs(t *testing.T) {
	const n = 256
	sc := new(lut.Scratch)
	sc.Grow(n)
	sc.GrowQ(n)
	sc.GrowT(n)
	ys := make([]float32, n)
	for _, fn := range Functions() {
		xs := diffInputs(fn)
		xs = xs[len(xs)-n:]
		for _, m := range Methods() {
			if !m.Supports(fn) {
				continue
			}
			for _, interp := range []bool{false, true} {
				if interp && !m.SupportsInterp() {
					continue
				}
				p := Params{Method: m, Interp: interp}
				t.Run(fmt.Sprintf("%v/%s", fn, p.Label()), func(t *testing.T) {
					dpu := newDPU()
					op, err := Build(fn, p, dpu)
					if err != nil {
						t.Fatal(err)
					}
					if !op.HasFastPath() {
						t.Fatal("no host kernel")
					}
					ctx := dpu.NewCtx()
					if got := testing.AllocsPerRun(10, func() { op.EvalBatchWith(ctx, xs, ys, sc) }); got != 0 {
						t.Fatalf("EvalBatchWith over %d inputs: %.1f allocations, want 0", n, got)
					}
				})
			}
		}
	}
}
