package workloads

import (
	"fmt"

	"transpimlib/internal/pimsim"
)

// Fig1Comparison reproduces the closing argument of §4.3: for an
// application already running on the PIM cores (its activations live
// in the DRAM banks), computing a transcendental function can either
//
//   - Figure 1(b): ship the operands to the host, compute there, ship
//     the results back — paying both transfer directions plus the host
//     kernel; or
//   - Figure 1(c): run TransPimLib in place on the PIM cores — paying
//     only PIM cycles.
//
// The paper infers that option (c) "could be 6–8× faster than the
// execution in the host CPU" once the saved PIM↔Host transfers are
// accounted. This type quantifies both paths under our models.
type Fig1Comparison struct {
	Workload string `json:"workload"`
	Elements int    `json:"elements"`

	// HostPath is the Figure 1(b) time: PIM→Host gather + host compute
	// (modeled 32-thread Xeon) + Host→PIM scatter.
	HostPath struct {
		GatherSeconds  float64 `json:"gather_seconds"`
		ComputeSeconds float64 `json:"compute_seconds"`
		ScatterSeconds float64 `json:"scatter_seconds"`
	} `json:"host_path"`
	// PIMSeconds is the Figure 1(c) time: the in-place PIM kernel with
	// no transfers (operands already resident).
	PIMSeconds float64 `json:"pim_seconds"`
}

// HostPathSeconds is the total Figure 1(b) time.
func (c Fig1Comparison) HostPathSeconds() float64 {
	return c.HostPath.GatherSeconds + c.HostPath.ComputeSeconds + c.HostPath.ScatterSeconds
}

// Speedup is host-path time over PIM time — the §4.3 factor.
func (c Fig1Comparison) Speedup() float64 { return c.HostPathSeconds() / c.PIMSeconds }

// String renders the comparison.
func (c Fig1Comparison) String() string {
	return fmt.Sprintf(
		"%-10s n=%-9d fig1(b) host path: %.4fs (gather %.4f + compute %.4f + scatter %.4f)  fig1(c) on-PIM: %.4fs  → %.1f× faster on PIM",
		c.Workload, c.Elements,
		c.HostPathSeconds(), c.HostPath.GatherSeconds, c.HostPath.ComputeSeconds, c.HostPath.ScatterSeconds,
		c.PIMSeconds, c.Speedup())
}

// SigmoidFig1 compares the two options for a sigmoid activation layer
// over data resident in the PIM banks (the paper's Sigmoid workload
// re-read through Figure 1). dpus scales the simulation; kernel time
// is per-core-load invariant and transfers are projected to the full
// element count.
func SigmoidFig1(dpus, elements int, kit Kit) (Fig1Comparison, error) {
	var c Fig1Comparison
	c.Workload = "sigmoid"
	c.Elements = elements

	// Figure 1(c): the PIM kernel, minus all Host↔PIM operand
	// transfers (data is already resident). Run the scaled kernel and
	// keep only its compute time.
	perCore := elements / FullDPUs
	if perCore < 1 {
		perCore = 1
	}
	acts := GenActivations(dpus*perCore, 5)
	r, err := SigmoidPIM(dpus, acts, kit)
	if err != nil {
		return c, err
	}
	c.PIMSeconds = r.KernelSeconds

	// Figure 1(b): gather the operands, compute on the 32-thread host,
	// scatter the results back, at the aggregate interface bandwidths.
	bytes := float64(elements * 4)
	c.HostPath.GatherSeconds = bytes / pimsim.DefaultPIMToHostBandwidth
	c.HostPath.ScatterSeconds = bytes / pimsim.DefaultHostToPIMBandwidth
	c.HostPath.ComputeSeconds = SigmoidCPUModeled(elements, 32).KernelSeconds
	return c, nil
}
