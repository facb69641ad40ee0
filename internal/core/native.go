package core

import (
	"context"

	"repro/internal/table"
)

// SolveParallel fills the DP table using real goroutines on the host. This
// is the framework's native multicore executor — it produces the same
// values as Solve and is what the examples use to solve problems for real.
//
// Execution runs on the dependency-driven tile engine (async.go): the
// table is cut into tiles whose shape follows from the mask, the table
// shape and the worker count (tileShape) — row segments, or, for the six
// masks that read NE with W or NW, multi-row tiles skewed along the
// wavefront index u = i + j — and each tile runs as soon as the neighbour
// tiles it reads are done: no wavefront barriers and no symmetry
// reduction. A table whose one tile column would span it runs as one
// whole-table tile on one worker.
//
// workers <= 0 selects min(runtime.GOMAXPROCS(0), runtime.NumCPU()), the
// documented NativeWorkers default.
func SolveParallel[T any](p *Problem[T], workers int) (*table.Grid[T], error) {
	return SolveParallelContext(context.Background(), p, Options{NativeWorkers: workers})
}

// SolveParallelOpt is SolveParallel with the native-runtime fields of
// Options honored: NativeWorkers and Tracer. All other Options fields are
// ignored — the native executor computes real values on the host and
// involves no simulated platform.
func SolveParallelOpt[T any](p *Problem[T], opts Options) (*table.Grid[T], error) {
	return SolveParallelContext(context.Background(), p, opts)
}

// SolveParallelContext is SolveParallelOpt honoring a context: workers
// poll it once per tile row, and a cancel or deadline expiry stops them
// promptly. The interrupted solve returns a nil grid and a *Canceled error
// (unwrapping to the context's cause) whose Front is the first row that
// holds an unfinished tile; the partially filled table is discarded. An
// uncancellable context costs nothing on the hot path.
func SolveParallelContext[T any](ctx context.Context, p *Problem[T], opts Options) (*table.Grid[T], error) {
	return solveTiles(ctx, "async", p, 0, opts)
}
