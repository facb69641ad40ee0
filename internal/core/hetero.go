package core

import (
	"context"
	"fmt"

	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// SolveHetero runs the paper's heterogeneous framework on the problem: it
// classifies the contributing set (Table I), symmetry-reduces the pattern,
// selects the execution strategy and work-division parameters, and plans
// the execution on the simulated platform. The cell values come from the
// native tile engine at Options.NativeWorkers.
func SolveHetero[T any](p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(context.Background(), p, opts, modeHetero)
}

// SolveHeteroContext is SolveHetero honoring a context, polled once per
// wavefront while planning and once per tile row while filling the table.
// A canceled solve returns a nil result and a *Canceled error.
func SolveHeteroContext[T any](ctx context.Context, p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(ctx, p, opts, modeHetero)
}

// SolveCPUOnly runs the multicore-CPU baseline on the simulated platform:
// one parallel region per wavefront, no GPU, no transfers.
func SolveCPUOnly[T any](p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(context.Background(), p, opts, modeCPUOnly)
}

// SolveCPUOnlyContext is SolveCPUOnly honoring a context.
func SolveCPUOnlyContext[T any](ctx context.Context, p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(ctx, p, opts, modeCPUOnly)
}

// SolveGPUOnly runs the pure-GPU baseline on the simulated platform: one
// kernel per wavefront, plus input upload and result extraction.
func SolveGPUOnly[T any](p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(context.Background(), p, opts, modeGPUOnly)
}

// SolveGPUOnlyContext is SolveGPUOnly honoring a context.
func SolveGPUOnlyContext[T any](ctx context.Context, p *Problem[T], opts Options) (*Result[T], error) {
	return solveSim(ctx, p, opts, modeGPUOnly)
}

type solveMode uint8

const (
	modeHetero solveMode = iota
	modeCPUOnly
	modeGPUOnly
)

func (m solveMode) String() string {
	switch m {
	case modeCPUOnly:
		return "cpu-only"
	case modeGPUOnly:
		return "gpu-only"
	default:
		return "hetero"
	}
}

func solveSim[T any](ctx context.Context, p *Problem[T], opts Options, mode solveMode) (res *Result[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp, canonical, reduction, _ := canonicalize(p)

	executed := canonical
	if canonical == InvertedL && !opts.PreferInvertedL {
		// §V-B: inverted-L problems run faster through horizontal case-1.
		executed = Horizontal
	}
	w := NewWavefronts(executed, cp.Rows, cp.Cols)
	o := opts.withDefaults(w, TransferNeed(p.Deps))

	e := newHeteroExec(ctx, cp, w, o)

	switch mode {
	case modeCPUOnly:
		err = runDeviceOnly(e, hetsim.ResCPU)
	case modeGPUOnly:
		err = runDeviceOnly(e, hetsim.ResGPU)
	default:
		switch executed {
		case AntiDiagonal:
			err = runAntiDiagonal(e, o.TSwitch, o.TShare)
		case Horizontal:
			err = runHorizontal(e, o.TShare)
		case InvertedL:
			err = runInvertedL(e, o.TSwitch, o.TShare)
		case KnightMove:
			err = runKnightMove(e, o.TSwitch, o.TShare)
		default:
			err = fmt.Errorf("core: no strategy for executed pattern %s", executed)
		}
	}
	if err != nil {
		return nil, err
	}
	var grid *table.Grid[T]
	if !o.SkipCompute {
		if grid, err = fillTiles(ctx, mode.String(), p, o); err != nil {
			return nil, err
		}
	}

	res = &Result[T]{
		Grid:      grid,
		Pattern:   Classify(p.Deps),
		Executed:  executed,
		Reduction: reduction,
		Transfer:  TransferNeed(p.Deps),
		TSwitch:   o.TSwitch,
		TShare:    o.TShare,
		Time:      e.sim.Makespan(),
		Timeline:  e.sim.Timeline(),
		Critical:  e.sim.CriticalPath(),
	}
	if tr := o.Tracer; tr != nil {
		// No EndSolve: imported events live on the simulated clock.
		tr.BeginSolve(trace.Meta{
			Solver: mode.String(), Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: executed.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: w.Fronts, Clock: "sim",
		})
		tr.ImportTimeline(res.Timeline)
	}
	if mode != modeHetero {
		res.TSwitch, res.TShare = 0, 0
	}
	return res, nil
}

// fillTiles computes the table of a simulated solve on the tile engine at
// NativeWorkers, in the problem's own orientation. The fill gets no
// Tracer, which describes the simulated schedule, and a cancel during it
// names solver, the simulated strategy.
func fillTiles[T any](ctx context.Context, solver string, p *Problem[T], o Options) (*table.Grid[T], error) {
	return solveTiles(ctx, solver, p, 0, Options{NativeWorkers: o.NativeWorkers})
}

// runDeviceOnly executes every wavefront on a single device: the pure-CPU
// and pure-GPU baselines of the paper's figures.
func runDeviceOnly[T any](e *heteroExec[T], dev hetsim.Resource) error {
	last := hetsim.NoOp
	if dev == hetsim.ResGPU {
		upload := e.uploadInput()
		for t := 0; t < e.w.Fronts; t++ {
			if e.canceled() {
				return e.cancelErr("gpu-only", t)
			}
			last = e.gpuOp(t, 0, e.w.Size(t), "gpu:only", last, upload)
		}
		e.extract(e.w.Size(e.w.Fronts-1), last)
		return nil
	}
	for t := 0; t < e.w.Fronts; t++ {
		if e.canceled() {
			return e.cancelErr("cpu-only", t)
		}
		last = e.cpuOp(t, 0, e.w.Size(t), "cpu:only", last)
	}
	return nil
}
