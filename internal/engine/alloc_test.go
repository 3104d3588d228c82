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
// launch each, and a launch allocates only its shared worker state and
// its workers' starts: the lanes run with the System's per-core
// contexts.
func TestEvaluateBatchAllocs(t *testing.T) {
	const maxAllocs = 57
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
