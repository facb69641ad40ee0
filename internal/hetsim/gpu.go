package hetsim

import "time"

// GPUModel describes the accelerator.
//
// The model corresponds to one kernel launch per framework iteration with a
// thread per cell (paper §IV-A): the kernel pays a fixed launch latency,
// then executes ceil(cells / Lanes()) SIMT waves, each costing WaveCost.
// WaveCost is dominated by global-memory round trips, so uncoalesced access
// multiplies it by UncoalescedPenalty (paper §IV-B).
type GPUModel struct {
	// SMX is the number of streaming multiprocessors.
	SMX int
	// CoresPerSMX is the number of CUDA cores per multiprocessor.
	CoresPerSMX int
	// WarpSize is the SIMT width (reporting only; lanes already include it).
	WarpSize int
	// LaunchLatency is the fixed host-side cost of one kernel launch.
	LaunchLatency time.Duration
	// WaveCost is the time for one full-width wave of cells, coalesced.
	WaveCost time.Duration
	// UncoalescedPenalty multiplies WaveCost when the table layout does not
	// place an iteration's cells contiguously (>= 1).
	UncoalescedPenalty float64
}

// Lanes returns the total number of concurrently executing cell threads.
func (g GPUModel) Lanes() int {
	l := g.SMX * g.CoresPerSMX
	if l < 1 {
		return 1
	}
	return l
}

// KernelDuration returns the simulated duration of one kernel computing
// cells table cells. coalesced reports whether the iteration's cells are
// contiguous in device memory (see core.Options.Uncoalesced).
//
// Execution time is linear in the number of waves with a one-wave floor:
// launch + WaveCost * max(1, cells/Lanes). A fractional last wave costs its
// fraction, reflecting that real SMX occupancy tapers smoothly rather than
// in whole-device steps (warps retire independently).
func (g GPUModel) KernelDuration(cells int, coalesced bool) time.Duration {
	if cells <= 0 {
		return 0
	}
	waves := float64(cells) / float64(g.Lanes())
	if waves < 1 {
		waves = 1
	}
	per := float64(g.WaveCost)
	if !coalesced && g.UncoalescedPenalty > 1 {
		per *= g.UncoalescedPenalty
	}
	return g.LaunchLatency + time.Duration(waves*per)
}

// Throughput returns the asymptotic throughput in cells per second for
// large coalesced kernels.
func (g GPUModel) Throughput() float64 {
	if g.WaveCost <= 0 {
		return 0
	}
	return float64(g.Lanes()) / g.WaveCost.Seconds()
}

// ChunkedKernelDuration models the §IV-A counterfactual for the GPU: each
// thread serially processes chunk cells instead of one. The thread count
// drops to ceil(cells/chunk), but every SIMT wave now runs chunk times
// longer — so unless the cell count exceeds the device width by more than
// the chunk factor, chunking only serializes work the hardware could have
// run in parallel. chunk < 1 is treated as 1 (the thread-per-cell case).
func (g GPUModel) ChunkedKernelDuration(cells, chunk int, coalesced bool) time.Duration {
	if cells <= 0 {
		return 0
	}
	if chunk < 1 {
		chunk = 1
	}
	threads := ceilDiv(cells, chunk)
	waves := float64(threads) / float64(g.Lanes())
	if waves < 1 {
		waves = 1
	}
	per := float64(g.WaveCost) * float64(chunk)
	if !coalesced && g.UncoalescedPenalty > 1 {
		per *= g.UncoalescedPenalty
	}
	return g.LaunchLatency + time.Duration(waves*per)
}
