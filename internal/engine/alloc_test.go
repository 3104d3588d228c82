//go:build !race

// The race detector's sync.Pool drops a random share of the values put
// back, so under -race allocation counts vary from run to run and say
// nothing about the code. The bounds in this file build only without
// it.

package engine

import (
	"testing"

	"transpimlib/internal/stats"
)

// TestEvaluateBatchAllocs bounds the allocations of a warm
// default-engine request of 64Ki elements. It rides 16 batches of one
// launch each, and none of them allocates: the batcher plans into a
// slice it reuses, each shard's kernel is built once, and a launch wakes
// the shard's persistent lane workers. What is left is the request
// itself.
func TestEvaluateBatchAllocs(t *testing.T) {
	const maxAllocs = 4
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 1<<16, 3)
	eval := func() {
		if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		eval() // warm: tables, plans and staging buffers in place
	}
	got := testing.AllocsPerRun(20, eval)
	t.Logf("allocs per warm 64Ki-element request: %.0f", got)
	if got > maxAllocs {
		t.Fatalf("a warm 64Ki-element request allocates %.0f, want ≤ %d", got, maxAllocs)
	}
}

// TestEvaluateProgramAllocs bounds the allocations of a warm
// default-engine softmax program request of 256 elements. Its phases
// launch on the shard's persistent lane workers with the shard's
// program kernel, so the launches allocate nothing.
func TestEvaluateProgramAllocs(t *testing.T) {
	const maxAllocs = 11
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	prog, err := e.CompileProgram(progSoftmax(), progParams())
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float32{stats.RandomInputs(-5, 5, 256, 9)}
	eval := func() {
		if _, _, err := e.EvaluateProgram(prog, xs, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		eval() // warm: tables and plans in place on both shards
	}
	got := testing.AllocsPerRun(200, eval)
	t.Logf("allocs per warm 256-element softmax request: %.0f", got)
	if got > maxAllocs {
		t.Fatalf("a warm 256-element softmax request allocates %.0f, want ≤ %d", got, maxAllocs)
	}
}
