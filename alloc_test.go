//go:build !race

// The race detector's sync.Pool drops a random share of the values put
// back, so under -race allocation counts vary from run to run and say
// nothing about the code. The bounds in this file build only without
// it.

package transpimlib

import "testing"

// TestCORDICEvalAllocs: Lib.Eval on the CORDIC and CORDIC+LUT sine
// allocates nothing in either placement, so the per-call view of the
// iteration constants reads the core's memory without copying it.
func TestCORDICEvalAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Method: CORDIC},
		{Method: CORDIC, Placement: InMRAM},
		{Method: CORDICLUT},
		{Method: CORDICLUT, Placement: InMRAM},
	} {
		lib, err := New(cfg, Sin)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { lib.Eval(Sin, 1.1) }); got != 0 {
			t.Errorf("%s: Lib.Eval made %.1f allocations, want 0", cfg.params().Label(), got)
		}
	}
}
