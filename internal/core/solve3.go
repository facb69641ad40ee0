package core

import (
	"context"
	"time"

	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Solve3 fills the 3-D table sequentially in lexicographic order, which is
// dependency-safe for every subset of the seven predecessor corners (no
// offset has a positive component).
func Solve3[T any](p *Problem3[T]) (*table.Grid3[T], error) {
	return Solve3Context(context.Background(), p)
}

// Solve3Context is Solve3 honoring a context, polled once per i-slab. A
// canceled solve returns a nil grid and a *Canceled error.
func Solve3Context[T any](ctx context.Context, p *Problem3[T]) (*table.Grid3[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	done := ctxDone(ctx)
	g := table.NewGrid3[T](p.NX, p.NY, p.NZ)
	for i := 0; i < p.NX; i++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "sequential3", i)
		}
		for j := 0; j < p.NY; j++ {
			for k := 0; k < p.NZ; k++ {
				g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
			}
		}
	}
	return g, nil
}

// SolveParallel3 fills the table with real goroutines on the tile engine
// (async.go), run over the NX x NY grid of k-columns: each (i, j) grid
// cell is its whole column of NZ cells, filled in k order. A column reads
// only its own earlier cells and the columns (i, j-1), (i-1, j) and
// (i-1, j-1), so the engine runs under the projection of the mask (see
// projectDep3): every dependency points to an earlier row or left in the
// same row, as in 2-D, and a mask reading only Z leaves every column
// independent. The tile extent is tileShape's, its 256-cell floor counted
// in cells, so a 2-D table is the NZ = 1 case.
func SolveParallel3[T any](p *Problem3[T], workers int) (*table.Grid3[T], error) {
	return SolveParallel3Context(context.Background(), p, workers)
}

// SolveParallel3Context is SolveParallel3 honoring a context, polled by
// every worker once per tile row. A canceled solve returns a nil grid and
// a *Canceled error whose Front is the first i-layer that holds an
// unfinished tile.
func SolveParallel3Context[T any](ctx context.Context, p *Problem3[T], workers int) (*table.Grid3[T], error) {
	return SolveParallel3Opt(ctx, p, Options{NativeWorkers: workers})
}

// SolveParallel3Opt is SolveParallel3Context with the native-runtime
// fields of Options honored: NativeWorkers and the Tracer, wired through
// the tile engine exactly as in the 2-D executors.
func SolveParallel3Opt[T any](ctx context.Context, p *Problem3[T], opts Options) (*table.Grid3[T], error) {
	return solveParallel3(ctx, "async3", p, opts)
}

// projectDep3 is the 2-D mask of the k-column grid: a corner's (i, j) step
// names the neighbour column it reads (Y and YZ the column to the west, X
// and XZ the one to the north, XY and XYZ the north-west one), and Z stays
// inside the column. No corner steps to j + 1, so the projection never
// contains NE.
func projectDep3(m Dep3Mask) DepMask {
	var out DepMask
	if m&(Dep3Y|Dep3YZ) != 0 {
		out |= DepW
	}
	if m&(Dep3X|Dep3XZ) != 0 {
		out |= DepN
	}
	if m&(Dep3XY|Dep3XYZ) != 0 {
		out |= DepNW
	}
	return out
}

// solveParallel3 is SolveParallel3Opt naming the solver in the trace and
// in *Canceled.
func solveParallel3[T any](ctx context.Context, solver string, p *Problem3[T], opts Options) (*table.Grid3[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e, workers, err := tileEngineFor(ctx, projectDep3(p.Deps), p.NX, p.NY, p.NZ, 0, opts)
	if err != nil {
		return nil, err
	}
	g := table.NewGrid3[T](p.NX, p.NY, p.NZ)
	e.row = func(i, jLo, jHi int) {
		for j := jLo; j < jHi; j++ {
			for k := 0; k < p.NZ; k++ {
				g.Set(i, j, k, p.F(i, j, k, gather3(p, g, i, j, k)))
			}
		}
	}
	meta := trace.Meta{
		Solver: solver, Problem: p.Name,
		Rows: p.NX, Cols: p.NY * p.NZ, Fronts: p.NX,
	}
	if err := e.solve(ctx, meta, workers, opts.Tracer); err != nil {
		return nil, err
	}
	return g, nil
}

// Result3 is the outcome of a simulated 3-D solve.
type Result3[T any] struct {
	Grid     *table.Grid3[T]
	TSwitch  int
	TShare   int
	Timeline hetsim.Timeline
}

// Duration returns the simulated wall-clock time of the solve.
func (r *Result3[T]) Duration() time.Duration { return r.Timeline.Makespan() }

// SolveHetero3 runs the 3-D analogue of the anti-diagonal strategy: planes
// grow then shrink, so the first and last tSwitch planes stay on the CPU,
// and in between the CPU takes the cells of the top tShare i-layers of
// each plane while the GPU takes the rest. All dependencies point toward
// smaller coordinates, so — exactly as in 2-D — the CPU band never reads
// GPU cells and the boundary traffic is strictly one-way CPU->GPU.
// The simulated kernels assume the plane-major layout (coalesced fronts).
// The cell values come from SolveParallel3's tile engine.
func SolveHetero3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeHetero)
}

// SolveCPUOnly3 is the 3-D multicore baseline.
func SolveCPUOnly3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeCPUOnly)
}

// SolveGPUOnly3 is the 3-D pure-accelerator baseline.
func SolveGPUOnly3[T any](p *Problem3[T], opts Options) (*Result3[T], error) {
	return solveSim3(context.Background(), p, opts, modeGPUOnly)
}

func solveSim3[T any](ctx context.Context, p *Problem3[T], opts Options, mode solveMode) (res *Result3[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Platform == nil {
		opts.Platform = hetsim.HeteroHigh()
	}
	planes := p.Planes()
	planeSize := func(s int) int { return table.PlaneSize(p.NX, p.NY, p.NZ, s) }

	if opts.TSwitch < 0 {
		breakEven := breakEvenWidth(opts.Platform)
		opts.TSwitch = 0
		for s := 0; s < planes/2 && planeSize(s) < breakEven; s++ {
			opts.TSwitch++
		}
	}
	// bandCells returns how many leading cells of plane s lie in the top
	// `layers` i-layers (plane cells are ordered by i first). The i-band is
	// the dependency-closed CPU region: every predecessor offset keeps or
	// decreases i, so a band cell never reads a GPU cell.
	bandCells := func(s, layers int) int {
		n := 0
		for i := max(0, s-(p.NY-1)-(p.NZ-1)); i <= min(p.NX-1, min(s, layers-1)); i++ {
			_, c := table.PlaneRowSpan(p.NY, p.NZ, s, i)
			n += c
		}
		return n
	}
	if opts.TShare < 0 {
		// tShare counts top i-layers. Unlike the 2-D row band (at most one
		// cell per row per diagonal), an i-layer's share of a plane grows
		// with the plane width, so a fixed layer count must be feasible on
		// *every* phase-2 plane: pick the largest band whose CPU region
		// never outlasts the residual GPU kernel. Feasibility is monotone
		// in the band, so binary search applies.
		tSwitch := clampTSwitch(opts.TSwitch, planes)
		feasible := func(layers int) bool {
			for s := tSwitch; s < planes-tSwitch; s++ {
				size := planeSize(s)
				nCPU := min(bandCells(s, layers), size)
				if nCPU == 0 || nCPU == size {
					continue
				}
				cpuT := opts.Platform.CPU.RegionDuration(nCPU, true)
				gpuT := opts.Platform.GPU.KernelDuration(size-nCPU, true)
				if float64(cpuT) > 0.85*float64(gpuT) {
					return false
				}
			}
			return true
		}
		lo, hi := 0, p.NX
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		opts.TShare = lo
	}

	sim := hetsim.NewSim(opts.Platform)
	bpc := p.bytesPerCell()

	done := ctxDone(ctx)
	solver := mode.String() + "-3d"
	// The plane index rides along as the op's front tag.
	cpuOp := func(s, lo, hi int, deps ...hetsim.OpID) hetsim.OpID {
		if hi <= lo {
			return hetsim.NoOp
		}
		return sim.SubmitFront(hetsim.Op{
			Resource: hetsim.ResCPU, Kind: hetsim.OpCompute,
			Duration: opts.Platform.CPU.RegionDuration(hi-lo, true),
			Label:    "cpu:plane", Cells: hi - lo,
		}, s, deps...)
	}
	gpuOp := func(s, lo, hi int, deps ...hetsim.OpID) hetsim.OpID {
		if hi <= lo {
			return hetsim.NoOp
		}
		return sim.SubmitFront(hetsim.Op{
			Resource: hetsim.ResGPU, Kind: hetsim.OpCompute,
			Duration: opts.Platform.GPU.KernelDuration(hi-lo, true),
			Label:    "gpu:plane", Cells: hi - lo,
		}, s, deps...)
	}

	cpuCells := func(s int) int { return bandCells(s, opts.TShare) }

	switch mode {
	case modeCPUOnly:
		last := hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			last = cpuOp(s, 0, planeSize(s), last)
		}
	case modeGPUOnly:
		upload := hetsim.NoOp
		if p.InputBytes > 0 {
			upload = sim.Submit(hetsim.Op{
				Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
				Duration: opts.Platform.Bus.TransferDuration(p.InputBytes, false),
				Label:    "h2d:input", Bytes: p.InputBytes,
			})
		}
		last := hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			last = gpuOp(s, 0, planeSize(s), last, upload)
		}
	default:
		tSwitch := clampTSwitch(opts.TSwitch, planes)
		p2Start, p3Start := tSwitch, planes-tSwitch
		lastCPU, lastGPU := hetsim.NoOp, hetsim.NoOp
		prevBoundary := hetsim.NoOp
		syncUp, syncDown := hetsim.NoOp, hetsim.NoOp
		for s := 0; s < planes; s++ {
			if isDone(done) {
				return nil, canceledErr(ctx, solver, s)
			}
			size := planeSize(s)
			switch {
			case s < p2Start || s >= p3Start:
				if s == p3Start && lastGPU != hetsim.NoOp {
					// Phase 2 -> 3: pull the GPU parts of the last two
					// planes down for the CPU tail.
					bytes := (planeSize(s-1) + planeSize(max(0, s-2))) * bpc
					syncDown = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyD2H, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bytes, false),
						Label:    "d2h:phase2-sync", Bytes: bytes,
					}, lastGPU)
				}
				lastCPU = cpuOp(s, 0, size, lastCPU, syncDown)
			default:
				if s == p2Start && s > 0 {
					bytes := (planeSize(s-1) + planeSize(max(0, s-2))) * bpc
					syncUp = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bytes, false),
						Label:    "h2d:phase1-sync", Bytes: bytes,
					}, lastCPU)
				}
				nCPU := min(cpuCells(s), size)
				if nCPU > 0 {
					lastCPU = cpuOp(s, 0, nCPU, lastCPU)
				}
				if nCPU < size {
					lastGPU = gpuOp(s, nCPU, size, lastGPU, syncUp, prevBoundary)
				}
				// The CPU part ends in layer tShare-1 when that layer has
				// cells on plane s; the GPU's layer tShare reads them from
				// plane s+1 on.
				_, edge := table.PlaneRowSpan(p.NY, p.NZ, s, opts.TShare-1)
				if opts.TShare >= 1 && opts.TShare < p.NX && edge > 0 && s+1 < p3Start {
					prevBoundary = sim.Submit(hetsim.Op{
						Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
						Duration: opts.Platform.Bus.TransferDuration(bpc, true),
						Label:    "h2d:boundary", Bytes: bpc, Cells: 1,
					}, lastCPU)
				}
			}
		}
	}

	var g *table.Grid3[T]
	if !opts.SkipCompute {
		// The cell values come from the native tile engine, which gets no
		// Tracer: that describes the simulated schedule.
		fill := Options{NativeWorkers: opts.NativeWorkers}
		if g, err = solveParallel3(ctx, solver, p, fill); err != nil {
			return nil, err
		}
	}

	res = &Result3[T]{
		Grid:     g,
		TSwitch:  opts.TSwitch,
		TShare:   opts.TShare,
		Timeline: sim.Timeline(),
	}
	if tr := opts.Tracer; tr != nil {
		// No EndSolve: imported events live on the simulated clock, and a
		// wall-clock solve span would pollute the analysis.
		tr.BeginSolve(trace.Meta{
			Solver: solver, Problem: p.Name,
			Rows: p.NX, Cols: p.NY * p.NZ, Fronts: planes, Clock: "sim",
		})
		tr.ImportTimeline(res.Timeline)
	}
	return res, nil
}
