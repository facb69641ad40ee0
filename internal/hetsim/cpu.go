package hetsim

import "time"

// CPUModel describes the host multicore processor.
//
// The model corresponds to OpenMP-style execution: each parallel region
// (one framework iteration) pays a fixed fork/join dispatch overhead, then
// the cells are divided evenly among hardware threads, each processing its
// chunk sequentially at CellCost per cell. This is the "thread per block"
// strategy of paper §IV-A; the "thread per cell" anti-pattern (spawning one
// lightweight task per cell) is modeled by ThreadPerCellDuration and used
// only by the chunking ablation.
type CPUModel struct {
	// Cores is the number of physical cores (reporting only).
	Cores int
	// Threads is the number of hardware threads used by parallel regions.
	Threads int
	// ClockGHz is the nominal core clock (reporting only).
	ClockGHz float64
	// CellCost is the time for one thread to compute one cell.
	CellCost time.Duration
	// DispatchOverhead is the fork/join cost of one parallel region.
	DispatchOverhead time.Duration
	// SpawnCost is the per-task overhead in thread-per-cell mode.
	SpawnCost time.Duration
	// StridePenalty multiplies CellCost when the iteration's cells are not
	// contiguous in memory (e.g. inverted-L fronts in a row-major table),
	// modeling the extra cache misses. 1.0 means no penalty; values below
	// 1.0 are treated as 1.0.
	StridePenalty float64
}

func (c CPUModel) stridePenalty(contiguous bool) float64 {
	if contiguous || c.StridePenalty <= 1 {
		return 1
	}
	return c.StridePenalty
}

// RegionDuration returns the simulated time of one parallel region
// computing cells table cells, with chunked (thread-per-block) scheduling.
// contiguous reports whether the cells are laid out contiguously.
func (c CPUModel) RegionDuration(cells int, contiguous bool) time.Duration {
	if cells <= 0 {
		return 0
	}
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	perThread := ceilDiv(cells, threads)
	compute := time.Duration(float64(perThread) * float64(c.CellCost) * c.stridePenalty(contiguous))
	return c.DispatchOverhead + compute
}

// ThreadPerCellDuration returns the simulated time of a parallel region that
// spawns one task per cell (paper §IV-A's rejected strategy): every cell
// pays SpawnCost on top of the chunked compute time.
func (c CPUModel) ThreadPerCellDuration(cells int, contiguous bool) time.Duration {
	if cells <= 0 {
		return 0
	}
	spawn := time.Duration(cells) * c.SpawnCost
	return c.RegionDuration(cells, contiguous) + spawn
}

// Throughput returns the model's asymptotic throughput in cells per second
// for large contiguous regions.
func (c CPUModel) Throughput() float64 {
	if c.CellCost <= 0 {
		return 0
	}
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	return float64(threads) / c.CellCost.Seconds()
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
