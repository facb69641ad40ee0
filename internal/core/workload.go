package core

import (
	"context"

	"repro/internal/table"
	"repro/internal/trace"
)

// Workload is the untyped view of one tile-engine solve, with the cell
// type erased behind closures: what the process-wide scheduler
// (internal/sched) drives. The scheduler runs tiles of many Workloads on
// one worker set and cannot be generic over every submission's cell type,
// so it sees a solve as tile indices only.
//
// The contract mirrors the engine's worker loop: Sources are the tiles
// that wait for nothing; Run(t, ready) fills a ready tile t and stores in
// ready the tiles that finishing it made ready, the first of them being
// the one to continue with. Every tile is reported ready exactly once, so
// a scheduler that runs each reported tile once runs the whole table once.
// Run is safe for concurrent calls on distinct ready tiles.
type Workload struct {
	// Info describes the solve to a per-submission tracer. Solver is
	// "sched"; the scheduler fills in Workers at admission.
	Info trace.Meta
	// TotalCells is the table's cell count, used for size-aware admission
	// priority.
	TotalCells int64
	// Tiles is the number of tiles that hold a cell; the solve is done
	// when all have run.
	Tiles int
	// Sources are the tiles ready at the start. The scheduler takes the
	// slice over as the solve's ready queue, so a Workload is submitted
	// once.
	Sources []int32
	// Run fills tile t, stores the tiles that became ready in ready and
	// returns the tile's cell count and how many tiles it stored. ok is
	// false, and nothing is stored, if the solve's context ended first.
	Run func(t int32, ready *[4]int32) (cells, n int, ok bool)
	// Front returns the first row holding an unfinished tile, which is
	// Canceled.Front of an interrupted solve. Nil reports 0.
	Front func() int
}

// NewTileWorkload builds the Workload of a problem's tile-engine solve at
// tileShape's tile extent for the given worker count (one worker gets the
// whole-table row-major sweep as a single tile), together with the
// function that returns the computed grid. The grid is built over cells,
// the caller's row-major storage of exactly Rows*Cols cells, whose old
// values are never read; nil allocates a fresh grid. The grid is only
// valid after the scheduler reports the submission done; an abandoned or
// canceled workload's grid must be discarded, and its storage may still
// be written by workers finishing their tiles. ctx is polled once per
// tile row, as in SolveParallelContext.
func NewTileWorkload[T any](ctx context.Context, p *Problem[T], workers int, cells []T) (*Workload, func() *table.Grid[T], error) {
	e, g, _, err := gridEngine(ctx, p, 0, Options{NativeWorkers: workers}, cells)
	if err != nil {
		return nil, nil, err
	}
	wl := &Workload{
		Info: trace.Meta{
			Solver: "sched", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: e.executed(),
			Rows: p.Rows, Cols: p.Cols, Fronts: p.Rows,
		},
		TotalCells: int64(p.Rows) * int64(p.Cols),
		Tiles:      e.live,
		Sources:    e.sources(),
		Run:        e.step,
		Front:      e.firstUnfinishedRow,
	}
	return wl, func() *table.Grid[T] { return g }, nil
}
