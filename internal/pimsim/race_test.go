package pimsim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentShardLaunches is the -race regression test for the
// System ownership discipline: several goroutines each own a disjoint
// shard of the same System and concurrently (1) write inputs into
// pre-touched MRAM buffers, (2) charge host→PIM transfer time, (3)
// launch a kernel on their own crew, recording per-lane profiles, (4)
// charge PIM→host transfer time, and (5) read back results and their
// own cores' cycle counters — what each internal/engine shard does per
// batch. Run with -race.
func TestConcurrentShardLaunches(t *testing.T) {
	const (
		shards   = 4
		perShard = 2
		elems    = 64
		rounds   = 25
	)
	sys := NewSystem(Config{DPUs: shards * perShard})

	// Per-DPU input/output buffers, pre-touched so Mem growth happens
	// before any concurrency (the documented discipline).
	inAddr := make([]int, sys.NumDPUs())
	outAddr := make([]int, sys.NumDPUs())
	zero := make([]byte, elems*4)
	for i, d := range sys.DPUs() {
		inAddr[i] = d.MRAM.MustAlloc(elems * 4)
		outAddr[i] = d.MRAM.MustAlloc(elems * 4)
		d.MRAM.Write(inAddr[i], zero)
		d.MRAM.Write(outAddr[i], zero)
	}

	var wg sync.WaitGroup
	errc := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ids := make([]int, perShard)
		for k := range ids {
			ids[k] = s*perShard + k
		}
		wg.Add(1)
		go func(shard int, ids []int) {
			defer wg.Done()
			crew := sys.NewCrew(len(ids))
			defer crew.Close()
			lanes := make([]CoreProfile, len(ids))
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					m := sys.DPU(id).MRAM
					for j := 0; j < elems; j++ {
						m.PutFloat32(inAddr[id]+4*j, float32(shard+j)+0.5)
					}
				}
				sys.ChargeHostToPIM(perShard*elems*4, true)
				_, err := crew.Launch(uint64(r), 0, ids, lanes, func(ctx *Ctx, id int) error {
					m := ctx.DPU().MRAM
					ctx.ChargeDMA(elems * 4)
					for j := 0; j < elems; j++ {
						x := ctx.LoadStreamedF32(m, inAddr[id]+4*j)
						y := ctx.FAdd(ctx.FMul(x, 2), 1)
						ctx.StoreStreamedF32(m, outAddr[id]+4*j, y)
					}
					ctx.ChargeDMA(elems * 4)
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				sys.ChargePIMToHost(perShard*elems*4, true)
				for k, id := range ids {
					d := sys.DPU(id)
					if d.Cycles() == 0 || lanes[k].DPU != id || lanes[k].Cycles == 0 {
						t.Errorf("shard %d: dpu %d charged no cycles (record %+v)", shard, id, lanes[k])
					}
					got := d.MRAM.Float32(outAddr[id])
					want := float32(shard) + 0.5
					want = want*2 + 1
					if got != want {
						t.Errorf("shard %d dpu %d: got %v, want %v", shard, id, got, want)
					}
				}
				_ = sys.TransferSeconds() // shared clock read under load
			}
		}(s, ids)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if sys.TransferSeconds() <= 0 {
		t.Fatal("no transfer time accumulated")
	}
}

// settledGoroutines waits up to 5 s for the goroutine count to stop
// changing and returns it: a worker that has signalled its exit may
// still be unwinding.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestCrewLaunchStartsNoGoroutines: every launch of a crew runs on the
// workers NewCrew started — the goroutine count a kernel sees equals
// the count before the launch — and Close stops them.
func TestCrewLaunchStartsNoGoroutines(t *testing.T) {
	baseline := settledGoroutines()
	ids := []int{0, 1, 2, 3}
	sys := NewSystem(Config{DPUs: len(ids)})
	crew := sys.NewCrew(len(ids))
	inside := make([]int, len(ids))
	kernel := func(ctx *Ctx, id int) error {
		inside[id] = runtime.NumGoroutine()
		return nil
	}
	for launch := uint64(0); launch < 5; launch++ {
		before := runtime.NumGoroutine()
		if _, err := crew.Launch(launch, 0, ids, nil, kernel); err != nil {
			t.Fatal(err)
		}
		for id, n := range inside {
			if n != before {
				t.Fatalf("launch %d: lane %d saw %d goroutines, %d before the launch", launch, id, n, before)
			}
		}
	}
	crew.Close()
	if n := settledGoroutines(); n != baseline {
		t.Fatalf("%d goroutines after Close, %d before NewCrew", n, baseline)
	}
}
