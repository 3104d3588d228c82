package transpimlib

import (
	"math"
	"testing"
)

// TestPublicProgramAPI drives the fused-program surface through the
// public boundary: build, compile, evaluate, and check the result and
// byte accounting against the per-op baseline.
func TestPublicProgramAPI(t *testing.T) {
	eng, err := NewEngine(EngineConfig{DPUs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := NewProgram("softmax")
	x := p.Input()
	m := p.ReduceMax(x)
	e := p.Func(Exp, p.Sub(x, p.Broadcast(m)))
	s := p.ReduceSum(e)
	p.Return(p.Mul(e, p.Div(p.Const(1), p.Broadcast(s))))

	cp, err := eng.CompileProgram(p, Config{Method: LLUT, Interpolated: true, SizeLog2: 12})
	if err != nil {
		t.Fatal(err)
	}

	const n = 500
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i%17)/2 - 4
	}
	out, st, err := eng.EvaluateProgram(cp, [][]float32{xs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d outputs, want %d", len(out), n)
	}
	var sum float64
	for i, y := range out {
		if math.IsNaN(float64(y)) || y < 0 || y > 1 {
			t.Fatalf("out[%d] = %g, not a softmax probability", i, y)
		}
		sum += float64(y)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("softmax outputs sum to %g, want ~1", sum)
	}
	if st.SavedBytes != st.PerOpBytes-st.FusedBytes || st.SavedBytes <= 0 {
		t.Errorf("byte accounting: fused=%d perop=%d saved=%d", st.FusedBytes, st.PerOpBytes, st.SavedBytes)
	}
	if st.SavedTransferCycles <= 0 {
		t.Errorf("SavedTransferCycles = %d, want > 0", st.SavedTransferCycles)
	}

	// The per-op baseline returns bit-identical outputs.
	ref, pst, err := eng.EvaluateProgramPerOp("", cp, [][]float32{xs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if math.Float32bits(out[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("out[%d]: fused %x != per-op %x", i, math.Float32bits(out[i]), math.Float32bits(ref[i]))
		}
	}
	if pst.MovedBytes != st.PerOpBytes {
		t.Errorf("per-op moved %d bytes, model says %d", pst.MovedBytes, st.PerOpBytes)
	}
}
