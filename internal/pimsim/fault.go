package pimsim

import (
	"errors"
	"fmt"
)

// Injected-fault sentinel errors. Wrapped errors returned by
// Crew.Launch and the TryCharge transfer variants match these via
// errors.Is, so runtimes can distinguish injected faults (recoverable
// by retry/remap/degrade) from genuine kernel errors.
var (
	// ErrDPUFailed marks a hard injected core failure: the lane's
	// kernel did not run.
	ErrDPUFailed = errors.New("pimsim: dpu failed (injected)")
	// ErrTransferFault marks an injected host↔PIM transfer failure.
	// The transfer's time was still charged (a failed attempt costs).
	ErrTransferFault = errors.New("pimsim: transfer fault (injected)")
)

// LaunchVerdict is a FaultAgent's decision for one lane of a kernel
// launch.
type LaunchVerdict struct {
	// Fail skips the lane's kernel and reports the lane failed.
	Fail bool
	// SlowFactor, when > 1, scales the lane's modeled cycle delta for
	// this launch — the straggler model. Ignored when Fail is set.
	SlowFactor float64
}

// FaultAgent decides fault injection for the simulator's launch and
// transfer points. Implementations must be safe for concurrent use
// and deterministic in their arguments (the engine's chaos replays
// depend on it); see internal/faultsim for the seeded implementation.
type FaultAgent interface {
	// Launch is consulted once per lane per Crew.Launch attempt.
	// lane is the position in the launch's ids slice.
	Launch(seq, attempt uint64, lane int) LaunchVerdict
	// Transfer is consulted by TryChargeHostToPIM (out=false) and
	// TryChargePIMToHost (out=true); returning true injects a fault.
	Transfer(seq, attempt uint64, out bool) bool
}

// faultAgentBox wraps the interface so atomic.Pointer has a concrete
// element type.
type faultAgentBox struct{ agent FaultAgent }

// SetFaultAgent installs (or, with nil, removes) the system's fault
// agent. With no agent the launch and transfer paths pay one atomic
// load and behave exactly as before — fault injection disabled is the
// bit-identical baseline. Safe for concurrent use with in-flight
// launches: a launch snapshots the agent once at entry.
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

// TryChargeHostToPIM charges Host→PIM transfer time like
// ChargeHostToPIM and then consults the fault agent: an injected
// transfer fault is returned as an error wrapping ErrTransferFault.
// The time is charged either way — a failed attempt still costs.
func (s *System) TryChargeHostToPIM(seq, attempt uint64, totalBytes int, parallel bool) error {
	s.ChargeHostToPIM(totalBytes, parallel)
	if a := s.loadFaultAgent(); a != nil && a.Transfer(seq, attempt, false) {
		return fmt.Errorf("%w: host to pim, seq %d attempt %d", ErrTransferFault, seq, attempt)
	}
	return nil
}

// TryChargePIMToHost is the symmetric PIM→Host checked charge.
func (s *System) TryChargePIMToHost(seq, attempt uint64, totalBytes int, parallel bool) error {
	s.ChargePIMToHost(totalBytes, parallel)
	if a := s.loadFaultAgent(); a != nil && a.Transfer(seq, attempt, true) {
		return fmt.Errorf("%w: pim to host, seq %d attempt %d", ErrTransferFault, seq, attempt)
	}
	return nil
}
