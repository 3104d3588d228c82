//go:build exhaustive

package pimsim

import (
	"runtime"
	"sync"
	"testing"
)

// TestConversionsExhaustive checks RoundToEven32 and fixed.FromFloat32
// against their oracles on all 2³² float32 bit patterns, split across
// GOMAXPROCS goroutines. Run it without -race:
//
//	go test -tags exhaustive -run Exhaustive -timeout 30m ./internal/pimsim/
func TestConversionsExhaustive(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	chunk := (uint64(1)<<32 + uint64(workers) - 1) / uint64(workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := uint64(w) * chunk
		hi := min(lo+chunk, 1<<32)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := lo; b < hi; b++ {
				if err := checkConversions(uint32(b)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
