package core

import "repro/internal/hetsim"

// runInvertedL executes the two-phase heterogeneous strategy of paper
// §III-C for inverted-L problems (contributing set {NW}).
//
// Fronts shrink with time, so work is shared from the first iteration and
// the CPU takes over completely for the final tSwitch fronts. Within a
// front the CPU takes the first tShare cells (the leading row-segment of
// the L); the boundary cell is shipped to the GPU each iteration, per the
// paper's one-way transfer scheme (Table II).
//
// Note: with {NW} as the only dependency the GPU never reads a CPU cell,
// since NW chains run along the L and never cross the split into the GPU
// part; the per-front H2D here reproduces the paper's stated scheme rather
// than exploiting that. The other direction is live once tShare exceeds a
// front's row segment: the CPU share then wraps the L's corner, and its
// last column cell reads the previous front's first GPU cell, which ships
// D2H. The framework's default is anyway to solve this class through
// horizontal case-1, which §V-B measures as faster.
//
// The solve context is polled once per front; an observed cancellation
// aborts the plan and surfaces as *Canceled.
func runInvertedL[T any](e *heteroExec[T], tSwitch, tShare int) error {
	fronts := e.w.Fronts
	tSwitch = clampTSwitch(tSwitch, 2*fronts) // phase 2 may cover everything
	if tSwitch > fronts {
		tSwitch = fronts
	}
	p2Start := fronts - tSwitch

	lastCPU, lastGPU := hetsim.NoOp, hetsim.NoOp
	upload := e.uploadInput()
	prevH2D := hetsim.NoOp

	var lastGPUCells int
	for t := 0; t < p2Start; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		size := e.w.Size(t)
		cpuCount := tShare
		if cpuCount < 0 {
			cpuCount = 0
		}
		if cpuCount > size {
			cpuCount = size
		}
		gpuCount := size - cpuCount

		if cpuCount > 0 {
			// A CPU share wider than the row segment wraps the L's corner,
			// and its last cell reads NW from the previous front's first
			// GPU cell.
			down := hetsim.NoOp
			if t > 0 && cpuCount == tShare && tShare > e.w.Cols-t {
				down = e.boundary(hetsim.ResCopyD2H, 1, "d2h:boundary", lastGPU)
			}
			lastCPU = e.cpuOp(t, 0, cpuCount, "cpu:p1", lastCPU, down)
		}
		if gpuCount > 0 {
			lastGPU = e.gpuOp(t, cpuCount, size, "gpu:p1", lastGPU, upload, prevH2D)
			lastGPUCells = gpuCount
		}
		if cpuCount > 0 && gpuCount > 0 {
			prevH2D = e.boundary(hetsim.ResCopyH2D, 1, "h2d:boundary", lastCPU)
		}
	}

	// Phase 1 -> 2 synchronization: the CPU's first full front reads NW
	// cells of the previous front's GPU part.
	syncDown := hetsim.NoOp
	if p2Start > 0 && p2Start < fronts && lastGPU != hetsim.NoOp {
		syncDown = e.bulk(hetsim.ResCopyD2H, lastGPUCells*e.bpc, "d2h:phase1-sync", lastGPU)
	}

	// Phase 2: CPU only over the shrinking tail.
	for t := p2Start; t < fronts; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		lastCPU = e.cpuOp(t, 0, e.w.Size(t), "cpu:p2", lastCPU, syncDown)
	}

	if tSwitch == 0 && lastGPU != hetsim.NoOp {
		e.extract(e.w.Size(fronts-1), lastGPU)
	}
	return nil
}
