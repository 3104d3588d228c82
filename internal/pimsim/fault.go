package pimsim

import (
	"errors"
	"fmt"
)

// ErrDPUFailed marks a hard injected core failure: the lane's kernel
// did not run. Errors returned by Crew.Launch match it via errors.Is,
// so runtimes can distinguish injected faults (recoverable by
// retry/remap/degrade) from genuine kernel errors.
var ErrDPUFailed = errors.New("pimsim: dpu failed (injected)")

// LaunchVerdict is a FaultAgent's decision for one lane of a kernel
// launch.
type LaunchVerdict struct {
	// Fail skips the lane's kernel and reports the lane failed.
	Fail bool
	// SlowFactor, when > 1, scales the lane's modeled cycle delta for
	// this launch — the straggler model. Ignored when Fail is set.
	SlowFactor float64
}

// FaultAgent decides fault injection at the simulator's launch point.
// Implementations must be safe for concurrent use and deterministic in
// their arguments (the engine's chaos replays depend on it); see
// internal/faultsim for the seeded implementation. Transfers carry no
// agent: a runtime that books its own transfer time asks its injector
// directly.
type FaultAgent interface {
	// Launch is consulted once per lane per Crew.Launch attempt.
	// lane is the position in the launch's ids slice.
	Launch(seq, attempt uint64, lane int) LaunchVerdict
}

// faultAgentBox wraps the interface so atomic.Pointer has a concrete
// element type.
type faultAgentBox struct{ agent FaultAgent }

// SetFaultAgent installs (or, with nil, removes) the system's fault
// agent. With no agent a launch pays one atomic load and behaves
// exactly as before — fault injection disabled is the bit-identical
// baseline. Safe for concurrent use with in-flight launches: a launch
// snapshots the agent once at entry.
func (s *System) SetFaultAgent(a FaultAgent) {
	if a == nil {
		s.faultAgent.Store((*faultAgentBox)(nil))
		return
	}
	s.faultAgent.Store(&faultAgentBox{agent: a})
}

func (s *System) loadFaultAgent() FaultAgent {
	box := s.faultAgent.Load()
	if box == nil {
		return nil
	}
	return box.agent
}

// LaunchError aggregates the lanes of one launch that suffered an
// injected hard failure. Lanes are positions in the launch's ids
// slice. errors.Is(err, ErrDPUFailed) matches it.
type LaunchError struct {
	Seq     uint64
	Attempt uint64
	Lanes   []int
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("pimsim: %d dpu(s) failed (injected, seq %d attempt %d): lanes %v",
		len(e.Lanes), e.Seq, e.Attempt, e.Lanes)
}

func (e *LaunchError) Unwrap() error { return ErrDPUFailed }
