package core

import (
	"repro/internal/hetsim"
	"repro/internal/table"
)

// runAntiDiagonal executes the three-phase heterogeneous strategy of paper
// §III-A for anti-diagonal problems (contributing sets {W,N}, {W,NW,N}).
//
// Phase 1: the first tSwitch fronts run entirely on the CPU (low work).
// Phase 2: each front is split; the CPU takes the cells in the top tShare
// rows ("the first t_share cells of the corresponding anti-diagonal", which
// under the by-increasing-row front order is exactly the band i < tShare),
// the GPU takes the rest. Because all dependencies point up-left, the GPU's
// topmost cell needs the CPU's bottom boundary cell from the previous two
// fronts, and the CPU needs nothing back: the transfer is strictly one-way
// CPU->GPU (Table II), so the DMA copy pipelines under the running kernel.
// Phase 3: the last tSwitch fronts run entirely on the CPU again.
//
// The solve context is polled once per front; an observed cancellation
// aborts the plan and surfaces as *Canceled.
func runAntiDiagonal[T any](e *heteroExec[T], tSwitch, tShare int) error {
	fronts := e.w.Fronts
	tSwitch = clampTSwitch(tSwitch, fronts)
	p2Start, p3Start := tSwitch, fronts-tSwitch

	lastCPU, lastGPU := hetsim.NoOp, hetsim.NoOp
	upload := e.uploadInput()

	// h2d[t] is the boundary transfer carrying front t's CPU boundary cell.
	h2d := make([]hetsim.OpID, fronts)
	for i := range h2d {
		h2d[i] = hetsim.NoOp
	}

	// Phase 1: CPU only.
	for t := 0; t < p2Start; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		lastCPU = e.cpuOp(t, 0, e.w.Size(t), "cpu:p1", lastCPU)
	}

	// Phase 1 -> 2 synchronization: the GPU's first kernels read cells of
	// the two preceding fronts, all CPU-computed; upload them in bulk.
	syncUp := hetsim.NoOp
	if p2Start > 0 && p3Start > p2Start {
		bytes := 0
		for _, t := range []int{p2Start - 1, p2Start - 2} {
			if t >= 0 {
				bytes += e.w.Size(t) * e.bpc
			}
		}
		syncUp = e.bulk(hetsim.ResCopyH2D, bytes, "h2d:phase1-sync", lastCPU)
	}

	// Phase 2: split fronts.
	for t := p2Start; t < p3Start; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		size := e.w.Size(t)
		firstRow, _ := table.AntiDiagSpan(e.w.Rows, e.w.Cols, t)
		cpuCount := tShare - firstRow
		if cpuCount < 0 {
			cpuCount = 0
		}
		if cpuCount > size {
			cpuCount = size
		}
		gpuCount := size - cpuCount

		if cpuCount > 0 {
			lastCPU = e.cpuOp(t, 0, cpuCount, "cpu:p2", lastCPU)
		}
		if gpuCount > 0 {
			// Fixed-arity deps (NoOp entries are skipped by the simulator)
			// keep the slice on the stack: an append past the literal's
			// capacity here would heap-allocate once per front.
			b1, b2 := hetsim.NoOp, hetsim.NoOp
			if t-1 >= 0 {
				b1 = h2d[t-1]
			}
			if t-2 >= 0 {
				b2 = h2d[t-2]
			}
			lastGPU = e.gpuOp(t, cpuCount, size, "gpu:p2", lastGPU, upload, syncUp, b1, b2)
		}
		if cpuCount > 0 && firstRow+cpuCount == tShare && tShare < e.w.Rows && t+1 < p3Start {
			// The CPU part ends at the boundary cell (row tShare-1), which
			// the GPU reads through N on front t+1 and NW on front t+2.
			h2d[t] = e.boundary(hetsim.ResCopyH2D, 1, "h2d:boundary", lastCPU)
		}
	}

	// Phase 2 -> 3 synchronization: the CPU's first tail fronts read GPU
	// cells of the two preceding fronts; download their GPU parts.
	syncDown := hetsim.NoOp
	if p3Start < fronts && p3Start > p2Start {
		bytes := 0
		for _, t := range []int{p3Start - 1, p3Start - 2} {
			if t >= p2Start {
				size := e.w.Size(t)
				firstRow, _ := table.AntiDiagSpan(e.w.Rows, e.w.Cols, t)
				cpuCount := max(0, min(tShare-firstRow, size))
				bytes += (size - cpuCount) * e.bpc
			}
		}
		syncDown = e.bulk(hetsim.ResCopyD2H, bytes, "d2h:phase2-sync", lastGPU)
	}

	// Phase 3: CPU only.
	for t := p3Start; t < fronts; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		lastCPU = e.cpuOp(t, 0, e.w.Size(t), "cpu:p3", lastCPU, syncDown)
	}

	// Result extraction: with a CPU tail phase the answer is already on the
	// host; otherwise pull the GPU part of the final front.
	if tSwitch == 0 && lastGPU != hetsim.NoOp {
		e.extract(e.w.Size(fronts-1), lastGPU)
	}
	return nil
}
