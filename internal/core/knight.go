package core

import (
	"repro/internal/hetsim"
	"repro/internal/table"
)

// runKnightMove executes the three-phase heterogeneous strategy of paper
// §III-D for knight-move problems (contributing sets containing both W and
// NE), mirroring the scheme Deshpande et al. used for Floyd-Steinberg
// dithering.
//
// Fronts are the lines 2i+j = t. Like the anti-diagonal pattern, the
// parallelism profile grows then shrinks, so phases 1 and 3 keep the CPU
// alone on the narrow fronts. In phase 2 the CPU owns the left column band
// j < tShare and the GPU the rest. Both boundary directions are live
// (paper Figure 6): the GPU's leftmost cell reads the CPU's W (front t-1)
// and NW (front t-3) boundary cells, while the CPU's rightmost cell reads
// the GPU's NE boundary cell (front t-1) — a two-way exchange through
// pinned memory (Table II).
//
// The solve context is polled once per front; an observed cancellation
// aborts the plan and surfaces as *Canceled.
func runKnightMove[T any](e *heteroExec[T], tSwitch, tShare int) error {
	fronts := e.w.Fronts
	tSwitch = clampTSwitch(tSwitch, fronts)
	p2Start, p3Start := tSwitch, fronts-tSwitch

	lastCPU, lastGPU := hetsim.NoOp, hetsim.NoOp
	upload := e.uploadInput()

	h2d := make([]hetsim.OpID, fronts)
	d2h := make([]hetsim.OpID, fronts)
	for i := range h2d {
		h2d[i], d2h[i] = hetsim.NoOp, hetsim.NoOp
	}

	// split returns the in-front index separating the GPU part (low k,
	// small rows, j >= tShare) from the CPU part (high k, j < tShare).
	split := func(t int) (gpuCount, cpuCount int) {
		firstRow, size := table.KnightSpan(e.w.Rows, e.w.Cols, t)
		if size == 0 {
			return 0, 0
		}
		lastRow := firstRow + size - 1
		// Cells are (i, t-2i); j < tShare means i > (t-tShare)/2.
		cpuFirstRow := ceilDivInt(t-tShare+1, 2)
		if cpuFirstRow < firstRow {
			cpuFirstRow = firstRow
		}
		if cpuFirstRow > lastRow+1 {
			cpuFirstRow = lastRow + 1
		}
		cpuCount = lastRow - cpuFirstRow + 1
		return size - cpuCount, cpuCount
	}

	// onFront reports whether column j holds a cell of front t.
	onFront := func(t, j int) bool {
		return j >= 0 && j < e.w.Cols && t >= j && (t-j)%2 == 0 && (t-j)/2 < e.w.Rows
	}

	// Phase 1: CPU only. Fronts are empty on one-column tables at odd t,
	// and an empty front must not drop the op the sync below waits for.
	for t := 0; t < p2Start; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		if op := e.cpuOp(t, 0, e.w.Size(t), "cpu:p1", lastCPU); op != hetsim.NoOp {
			lastCPU = op
		}
	}

	// Phase 1 -> 2 synchronization: knight dependencies reach back three
	// fronts (W,NE: t-1; N: t-2; NW: t-3), all CPU-computed at the seam.
	syncUp := hetsim.NoOp
	if p2Start > 0 && p3Start > p2Start {
		bytes := 0
		for back := 1; back <= 3; back++ {
			if t := p2Start - back; t >= 0 {
				bytes += e.w.Size(t) * e.bpc
			}
		}
		syncUp = e.bulk(hetsim.ResCopyH2D, bytes, "h2d:phase1-sync", lastCPU)
	}

	// Phase 2: split fronts with two-way boundary exchange.
	for t := p2Start; t < p3Start; t++ {
		if e.canceled() {
			return e.cancelErr("hetero", t)
		}
		size := e.w.Size(t)
		gpuCount, cpuCount := split(t)

		if gpuCount > 0 {
			// Fixed-arity deps (NoOp ignored) keep the slice stack-allocated;
			// appending past a literal's capacity costs one heap allocation
			// per front.
			b1, b3 := hetsim.NoOp, hetsim.NoOp
			if t-1 >= 0 {
				b1 = h2d[t-1]
			}
			if t-3 >= 0 {
				b3 = h2d[t-3]
			}
			lastGPU = e.gpuOp(t, 0, gpuCount, "gpu:p2", lastGPU, upload, syncUp, b1, b3)
		}
		if cpuCount > 0 {
			down := hetsim.NoOp
			if t-1 >= 0 {
				down = d2h[t-1]
			}
			lastCPU = e.cpuOp(t, gpuCount, size, "cpu:p2", lastCPU, down)
		}
		// A boundary cell ships when the other device reads it on front
		// t+1: the CPU's column tShare-1 through the GPU's W (and NW on
		// t+3), the GPU's column tShare through the CPU's NE.
		if t+1 < p3Start && onFront(t, tShare-1) && onFront(t+1, tShare) {
			h2d[t] = e.boundary(hetsim.ResCopyH2D, 1, "h2d:boundary", lastCPU)
		}
		if t+1 < p3Start && onFront(t, tShare) && onFront(t+1, tShare-1) {
			d2h[t] = e.boundary(hetsim.ResCopyD2H, 1, "d2h:boundary", lastGPU)
		}
	}

	// Phase 2 -> 3 synchronization: download the GPU parts of the last
	// three fronts for the CPU tail.
	syncDown := hetsim.NoOp
	if p3Start < fronts && p3Start > p2Start {
		bytes := 0
		for back := 1; back <= 3; back++ {
			if t := p3Start - back; t >= p2Start {
				gpuCount, _ := split(t)
				bytes += gpuCount * e.bpc
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

	if tSwitch == 0 && lastGPU != hetsim.NoOp {
		e.extract(e.w.Size(fronts-1), lastGPU)
	}
	return nil
}

// ceilDivInt returns ceil(a/b) for positive b and any a.
func ceilDivInt(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
