package main

import (
	"testing"
	"time"
)

// fakeClock is an injected clock whose every sleep ends late by a
// fixed overshoot, like an OS timer on a loaded machine.
type fakeClock struct {
	now, overshoot time.Duration
	sleeps         int
}

func (c *fakeClock) elapsed() time.Duration { return c.now }

func (c *fakeClock) sleep(d time.Duration) {
	c.now += d + c.overshoot
	c.sleeps++
}

// TestScheduleAbsoluteArrivals: with 100 µs gaps over 10 ms every one
// of the 100 arrivals fires, at its absolute due time or at most one
// overshoot late, although each sleep overshoots by 2.5 gaps; overdue
// arrivals fire without sleeping.
func TestScheduleAbsoluteArrivals(t *testing.T) {
	const gap = 100 * time.Microsecond
	clk := &fakeClock{overshoot: 250 * time.Microsecond}
	var n uint64
	schedule(10*time.Millisecond, func(time.Duration) time.Duration { return gap },
		clk.elapsed, clk.sleep, func() bool { return false },
		func(i uint64, due time.Duration) {
			if i != n {
				t.Fatalf("arrival %d fired as index %d", n, i)
			}
			if want := time.Duration(i) * gap; due != want {
				t.Fatalf("arrival %d due at %v, want %v", i, due, want)
			}
			if late := clk.now - due; late < 0 || late > clk.overshoot {
				t.Fatalf("arrival %d fired %v after its due time, want within [0, %v]", i, late, clk.overshoot)
			}
			n++
		})
	if n != 100 {
		t.Fatalf("fired %d arrivals, want 100", n)
	}
	if clk.sleeps >= 40 {
		t.Errorf("slept %d times for 100 arrivals: overdue arrivals must fire without sleeping", clk.sleeps)
	}
}

// TestScheduleStops: stop ends the run before the next arrival fires.
func TestScheduleStops(t *testing.T) {
	clk := &fakeClock{}
	var n int
	schedule(time.Second, func(time.Duration) time.Duration { return time.Millisecond },
		clk.elapsed, clk.sleep, func() bool { return n == 5 },
		func(uint64, time.Duration) { n++ })
	if n != 5 {
		t.Fatalf("fired %d arrivals after stop, want 5", n)
	}
}
