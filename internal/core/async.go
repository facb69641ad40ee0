package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
	"repro/internal/trace"
)

// Dependency-driven tile executor: the engine behind SolveParallel,
// SolveTiled, SolveParallel3 and every scheduler submission
// (NewTileWorkload).
//
// The table is cut into a grid of th x tw tiles and run as a DAG of
// tiles, following the frontier scheme of "Parallel and (Nearly)
// Work-Efficient Dynamic Programming" (arXiv 2404.16314) at tile rather
// than cell granularity:
//
//   - every tile carries an atomic in-degree counter: the number of its
//     W/NW/N/NE neighbour tiles that some cell edge of the mask crosses
//     into (deps), set once when the engine is built;
//   - a worker that finishes a tile decrements each dependent; the
//     decrement that reaches zero makes the dependent ready. The worker
//     keeps the first ready dependent as its next tile, checking the tile
//     below first so it stays on its column band, and queues the rest
//     (on the engine's ready channel in process, on the submission's
//     ready queue under the scheduler);
//   - cells inside a tile run row-major, one tile row at a time through
//     the engine's row kernel, which is safe for every mask (every cell
//     offset points to an earlier row, or left in the same row). The
//     kernel is all the engine knows of the cell type: the 2-D solvers
//     pass the flat kernel's row loop, and the 3-D solvers one that fills
//     each (i, j) cell's whole k-column (solve3.go).
//
// Tile columns index either j or, for the six masks that read NE together
// with W or NW, the wavefront index u = i + j of the anti-diagonal
// pattern (paper Table I). In (i, j) an NE read from a tile's second row
// lands in the tile to the east, so those masks would need 1-row tiles
// and synchronise across column bands on every row. In (i, u) the cell
// offsets W, NW, N and NE become (0,-1), (-1,-2), (-1,-1) and (-1,0):
// none points right, so with tw >= 2 a skewed tile waits only on its W,
// NW and N tiles and may be many rows tall. Skewed tile (bi, bu) holds,
// in each of its rows i, the cells with j in [bu*tw - i, bu*tw + tw - i)
// ∩ [0, cols); the corner tiles of the (i, u) grid hold no cell and are
// born finished. Any order that respects the dependency DAG reaches the
// sequential fixed point, so the cut changes the schedule, never a value
// (DESIGN.md §15).
//
// No canonicalization is needed. Every neighbour tile lies in an earlier
// tile row or to the left in the same tile row, so the tile graph is
// acyclic for all 15 masks — provided NE never crosses into the tile to
// the east, which is why an unskewed mask containing NE ({NE} or {N,NE})
// gets 1-row tiles. Each tile is queued at most once, so a buffered
// channel with one slot per tile never blocks a sender. Go atomics and
// channel (or mutex) operations give the happens-before chain a tile
// needs: each neighbour's grid writes precede its decrement, and the
// zero-observing decrementer's queueing (or continuation) precedes the
// tile's reads.

// tileShape is the tile extent SolveParallel and NewTileWorkload run a
// rows x cols table with under mask m on the given worker count; depth is
// the number of cells each grid cell holds (1 in 2-D, the k-column length
// NZ in 3-D). One worker sweeps the whole table as one row-major tile. The
// six masks that read NE with W or NW get skewed tiles tw u-columns wide
// and tw/4 rows tall, with tw a sixteenth of a worker's share of the
// rows + cols - 1 wavefront indices but at least 256 (64 x 256 at 1024²,
// best or tied in a sweep of 16-256 rows x 128-1024 columns). The other
// masks get row segments: without W a row splits into one segment per
// worker, the column-band partition; with W a segment is a quarter of a
// worker's share, so a row pipelines across the workers. Either way a
// segment holds no fewer than 256 cells, below which the per-tile hand-off
// costs more than it overlaps (DESIGN.md §15 gives the sweep).
//
// When one tile column would span the table (a row segment as wide as
// the table under a mask that reads the row above, or a skewed tile as
// wide as all rows + cols - 1 wavefront indices), that column is a
// dependency chain: it gets no parallelism from being cut, only a
// hand-off per tile, so the table runs as one whole-table tile. {W} keeps
// its row segments, which wait on nothing.
func tileShape(m DepMask, rows, cols, depth, workers int) (th, tw int) {
	if workers <= 1 {
		return rows, cols
	}
	minWidth := ceilDiv(256, depth)
	if skews(m) {
		tw = max(minWidth, ceilDiv(rows+cols-1, 4*workers))
		if tw >= rows+cols-1 {
			return rows, cols
		}
		return tw / 4, tw
	}
	if m.Has(DepW) {
		workers *= 4
	}
	tw = max(minWidth, ceilDiv(cols, workers))
	if tw >= cols && m&^DepW != 0 {
		return rows, cols
	}
	return 1, tw
}

// skews reports whether m is one of the six masks the engine cuts in
// (i, u = i + j): those that read NE together with W or NW. {NE} and
// {N,NE} keep 1-row tiles, whose column bands already pipeline.
func skews(m DepMask) bool { return m.Has(DepNE) && m&(DepW|DepNW) != 0 }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// defaultWorkers is the documented Options.NativeWorkers default,
// min(GOMAXPROCS, NumCPU): the engine is compute-bound, so workers beyond
// the physical cores add no throughput.
func defaultWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// workerLabels is the pprof label set of an engine worker goroutine, so
// CPU profiles segment by solver, tile shape and worker.
func workerLabels(solver, executed string, w int) pprof.LabelSet {
	return pprof.Labels(
		"lddp_solver", solver,
		"lddp_phase", executed,
		"lddp_worker", strconv.Itoa(w),
	)
}

// tileEngine is the shared state of one tile-graph solve. It is built
// once (counters set) and then driven by worker loops: the engine's own
// goroutines (solve, which owns the ready channel and the fields below
// it) or scheduler workers running a NewTileWorkload's tiles.
type tileEngine struct {
	// row fills cells [jLo, jHi) of row i, reading only cells the mask
	// makes it wait for.
	row        func(i, jLo, jHi int)
	mask       DepMask
	rows, cols int
	depth      int  // cells per grid cell, for the cell counts
	th, tw     int  // tile extent: rows x columns, or x u-columns when skewed
	tr, tc     int  // tile grid extent in tiles
	skew       bool // tile columns index u = i + j instead of j
	live       int  // tiles holding at least one cell

	// counters[t] counts the unfinished neighbour tiles tile t (row-major
	// tile index) waits for; the decrement to zero hands the tile to
	// exactly one worker. A finished tile stores -1, and so does a tile
	// holding no cell from the start.
	counters []atomic.Int32
	done     <-chan struct{}

	ready    chan int32
	left     atomic.Int64  // tiles not yet finished
	finished chan struct{} // closed by the worker that finishes the last tile
	lanes    []*trace.Lane
}

// gridEngine validates the problem and builds the engine of its 2-D table
// (see tileEngineFor) with the grid it fills: one over cells, which must
// hold exactly Rows*Cols cells, or a fresh one when cells is nil. The
// engine writes every cell before any cell reads it, and reads outside
// the table go to the boundary, so cells may hold stale values.
func gridEngine[T any](ctx context.Context, p *Problem[T], tile int, opts Options, cells []T) (*tileEngine, *table.Grid[T], int, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if cells != nil && len(cells) != p.Rows*p.Cols {
		return nil, nil, 0, fmt.Errorf("core: %d cells of storage for a %dx%d table", len(cells), p.Rows, p.Cols)
	}
	e, workers, err := tileEngineFor(ctx, p.Deps, p.Rows, p.Cols, 1, tile, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	g := table.GridOver(p.Rows, p.Cols, cells)
	e.row = newFlatKernel(p, g.RowMajorData(), p.Cols).row
	return e, g, workers, nil
}

// tileEngineFor validates the options and builds the engine of a rows x
// cols grid of depth-cell grid cells under mask m, with the worker count
// and the tile extent they select: square tiles of side tile, or
// tileShape's when tile == 0. The caller sets the row kernel.
func tileEngineFor(ctx context.Context, m DepMask, rows, cols, depth, tile int, opts Options) (*tileEngine, int, error) {
	if err := opts.Validate(); err != nil {
		return nil, 0, err
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	th, tw := tile, tile
	if tile == 0 {
		th, tw = tileShape(m, rows, cols, depth, workers)
	}
	return newTileEngine(ctx, m, rows, cols, depth, workers, th, tw)
}

// newTileEngine cuts a rows x cols grid under mask m into th x tw tiles
// and sets every tile's counter; it allocates no cell storage. When the
// grid takes more than one tile, the tiles are skewed (tile columns index
// u = i + j) for a mask skews names and tw >= 2, and 1-row under any
// other mask containing NE (a taller tile's NE reads would land in the
// tile to the east). The extent is clamped to the grid (to its
// rows + cols - 1 wavefront indices when skewed). It returns the engine
// and the worker count capped at the count of tiles that hold a cell.
func newTileEngine(ctx context.Context, m DepMask, rows, cols, depth, workers, th, tw int) (*tileEngine, int, error) {
	single := th >= rows && tw >= cols
	skew := !single && skews(m) && tw >= 2
	if !single && !skew && m.Has(DepNE) {
		th = 1
	}
	span := cols
	if skew {
		span = rows + cols - 1
	}
	th, tw = min(th, rows), min(tw, span)
	tr, tc := ceilDiv(rows, th), ceilDiv(span, tw)
	tiles := int64(tr) * int64(tc)
	if tiles > math.MaxInt32 {
		// Tile indices travel as int32 on the ready queue.
		return nil, 0, fmt.Errorf("core: tile engine supports at most %d tiles, got %d (%dx%d tiles of %dx%d cells)",
			math.MaxInt32, tiles, tr, tc, th, tw)
	}

	e := &tileEngine{
		mask: m,
		rows: rows, cols: cols, depth: depth,
		th: th, tw: tw, tr: tr, tc: tc,
		skew:     skew,
		counters: make([]atomic.Int32, tiles),
		done:     ctxDone(ctx),
	}
	for t := range e.counters {
		bi, bj := t/tc, t%tc
		if skew && !e.reads(bi, bj, bi, bj, 0, 0) {
			e.counters[t].Store(-1) // no cell: finished from the start
			continue
		}
		e.live++
		e.counters[t].Store(int32(e.deps(bi, bj).Count()))
	}
	return e, min(workers, e.live), nil
}

// sources returns the tiles that wait for nothing, in row-major order.
// Only valid before any tile has run.
func (e *tileEngine) sources() []int32 {
	n := 0
	for t := range e.counters {
		if e.counters[t].Load() == 0 {
			n++
		}
	}
	src := make([]int32, 0, n)
	for t := range e.counters {
		if e.counters[t].Load() == 0 {
			src = append(src, int32(t))
		}
	}
	return src
}

// deps returns the neighbour tiles tile (bi, bj) waits for: exactly the
// tile pairs some cell edge crosses. Unskewed, these are the block
// offsets deriveBlockMask lifts the mask to at the tile's own extent
// (edge tiles may be smaller), less those outside the tile grid.
func (e *tileEngine) deps(bi, bj int) DepMask {
	if e.skew {
		return e.skewDeps(bi, bj)
	}
	if bi == 0 && bj == 0 {
		// The first tile waits for nothing; it may also be the whole
		// table, a tile taller than deriveBlockMask accepts under NE.
		return 0
	}
	m := deriveBlockMask(e.mask, min(e.th, e.rows-bi*e.th), min(e.tw, e.cols-bj*e.tw))
	if bi == 0 {
		m &^= DepNW | DepN | DepNE
	}
	if bj == 0 {
		m &^= DepW | DepNW
	}
	if bj == e.tc-1 {
		m &^= DepNE
	}
	return m
}

// skewDeps is deps on skewed tiles. In (i, u) every cell offset has a
// row step of 0 or -1 and a u step of 0 to -2, so with tw >= 2 an edge
// enters tile (bi, bu) only from its W (0,-1), NW (-1,-1) or N (-1,0)
// tile; reads checks each candidate against the cells both tiles hold,
// which keeps the count exact on the ragged tiles along the table's
// edges.
func (e *tileEngine) skewDeps(bi, bu int) DepMask {
	var m DepMask
	for _, o := range cellOffsets {
		if !e.mask.Has(o.dep) {
			continue
		}
		if e.reads(bi, bu, bi, bu-1, o.di, o.dj) {
			m |= DepW
		}
		if e.reads(bi, bu, bi-1, bu-1, o.di, o.dj) {
			m |= DepNW
		}
		if e.reads(bi, bu, bi-1, bu, o.di, o.dj) {
			m |= DepN
		}
	}
	return m
}

// cellOffsets are the (row, column) offsets of the four representative
// cells.
var cellOffsets = [...]struct {
	dep    DepMask
	di, dj int
}{{DepW, 0, -1}, {DepNW, -1, -1}, {DepN, -1, 0}, {DepNE, -1, 1}}

// reads reports whether some cell of skewed tile (bi, bu) has its
// (di, dj) neighbour in skewed tile (si, su), both cells inside the table.
// With (si, su) = (bi, bu) and a zero offset it reports whether the tile
// holds a cell at all.
func (e *tileEngine) reads(bi, bu, si, su, di, dj int) bool {
	if si < 0 || su < 0 {
		return false
	}
	du := di + dj
	// The rows and u-columns of tile (bi, bu) whose neighbour lies in the
	// rows and u-columns of tile (si, su)...
	iLo := max(bi*e.th, si*e.th-di)
	iHi := min(bi*e.th+e.th, si*e.th+e.th-di, e.rows)
	uLo := max(bu*e.tw, su*e.tw-du)
	uHi := min(bu*e.tw+e.tw, su*e.tw+e.tw-du)
	// ...span the columns j = u - i in [uLo-iHi+1, uHi-1-iLo], and the
	// cell and its neighbour need j and j+dj in [0, cols).
	jLo := max(uLo-iHi+1, 0, -dj)
	jHi := min(uHi-1-iLo, e.cols-1, e.cols-1-dj)
	return iLo < iHi && uLo < uHi && jLo <= jHi
}

// publish decrements the tiles that wait for the finished tile (bi, bj),
// stores those that became ready in ready and returns how many it stored.
// The tile below is checked first, so a worker that continues with
// ready[0] keeps to its column band.
func (e *tileEngine) publish(bi, bj int, ready *[4]int32) int {
	n := 0
	release := func(ti, tj int, from DepMask) {
		if ti >= e.tr || tj < 0 || tj >= e.tc || !e.deps(ti, tj).Has(from) {
			return
		}
		t := int32(ti*e.tc + tj)
		if e.counters[t].Add(-1) == 0 {
			ready[n] = t
			n++
		}
	}
	release(bi+1, bj, DepN)
	release(bi, bj+1, DepW)
	release(bi+1, bj+1, DepNW)
	release(bi+1, bj-1, DepNE)
	return n
}

// step fills the ready tile t, marks it finished and publishes it (see
// publish). ok is false, and nothing is published, if the context ended
// first.
func (e *tileEngine) step(t int32, ready *[4]int32) (cells, n int, ok bool) {
	bi, bj := int(t)/e.tc, int(t)%e.tc
	if cells, ok = e.runTile(bi, bj); !ok {
		return 0, 0, false
	}
	e.counters[t].Store(-1)
	return cells, e.publish(bi, bj, ready), true
}

// runTile fills tile (bi, bj) one row at a time and returns its cell
// count, or false if the context ended first. The context is polled once
// per tile row, so even a whole-table tile stays cancellable.
func (e *tileEngine) runTile(bi, bj int) (int, bool) {
	iLo, cLo := bi*e.th, bj*e.tw
	iHi, cHi := min(iLo+e.th, e.rows), cLo+e.tw
	cells := 0
	for i := iLo; i < iHi; i++ {
		if isDone(e.done) {
			return 0, false
		}
		jLo, jHi := cLo, min(cHi, e.cols)
		if e.skew {
			jLo, jHi = max(cLo-i, 0), min(cHi-i, e.cols)
		}
		if jLo < jHi {
			e.row(i, jLo, jHi)
			cells += jHi - jLo
		}
	}
	return cells * e.depth, true
}

// startLoops readies the engine for its own worker loops: every source
// tile on the ready channel, every live tile left to finish.
func (e *tileEngine) startLoops() {
	e.ready = make(chan int32, e.live)
	e.finished = make(chan struct{})
	e.left.Store(int64(e.live))
	for t := range e.counters {
		if e.counters[t].Load() == 0 {
			e.ready <- int32(t)
		}
	}
}

// work is the in-process worker loop: take a ready tile (the kept
// dependent, or one off the ready channel), fill it, publish it, repeat
// until the last tile is done or the context ends.
func (e *tileEngine) work(w int) {
	var ln *trace.Lane
	if e.lanes != nil {
		ln = e.lanes[w]
	}
	var ready [4]int32
	next := int32(-1)
	for {
		t := next
		if t < 0 {
			select {
			case t = <-e.ready:
			case <-e.finished:
				return
			case <-e.done:
				return
			}
			if ln != nil {
				ln.Instant(trace.KindReady, int(t)/e.tc*e.th, int64(len(e.ready)), int64(e.live)-e.left.Load())
			}
		}
		var t0 time.Time
		if ln != nil {
			t0 = time.Now()
		}
		cells, n, ok := e.step(t, &ready)
		if !ok {
			return
		}
		if ln != nil {
			ln.SpanFrom(trace.KindTask, int(t)/e.tc*e.th, 0, int64(cells), t0)
		}
		next = -1
		if n > 0 {
			next = ready[0]
			for _, r := range ready[1:n] {
				e.ready <- r
			}
		}
		if e.left.Add(-1) == 0 {
			close(e.finished)
			return
		}
	}
}

// executed names the tile shape in trace.Meta and the workers' pprof
// labels, for example "tiles 1x256", or "tiles 64x256 skewed" for tiles
// in (i, u). Every solve builds it, so it is appended into one string
// rather than formatted: fmt would box each extent of 256 or more into
// an interface, one allocation apiece.
func (e *tileEngine) executed() string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(append(b, "tiles "...), int64(e.th), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(e.tw), 10)
	if e.skew {
		b = append(b, " skewed"...)
	}
	return string(b)
}

// firstUnfinishedRow is Canceled.Front for the tile engine: the first row
// that holds an unfinished tile. Only called after the worker join.
func (e *tileEngine) firstUnfinishedRow() int {
	for t := range e.counters {
		if e.counters[t].Load() >= 0 {
			return t / e.tc * e.th
		}
	}
	return e.rows
}

// solveTiles is the shared entry of SolveParallel* and SolveTiled*: it
// builds the engine and runs it (see solve). solver names the executor in
// the trace and in *Canceled.
func solveTiles[T any](ctx context.Context, solver string, p *Problem[T], tile int, opts Options) (*table.Grid[T], error) {
	e, g, workers, err := gridEngine(ctx, p, tile, opts, nil)
	if err != nil {
		return nil, err
	}
	meta := trace.Meta{
		Solver: solver, Problem: p.Name, Pattern: Classify(p.Deps).String(),
		Rows: p.Rows, Cols: p.Cols, Fronts: p.Rows,
	}
	if err := e.solve(ctx, meta, workers, opts.Tracer); err != nil {
		return nil, err
	}
	return g, nil
}

// solve runs the engine to completion with one worker loop per worker
// (the caller is worker 0) and wires the Tracer, which gets meta with the
// tile shape and the worker count filled in. A canceled solve returns a
// *Canceled naming meta.Solver, whose Front is the first row that holds an
// unfinished tile.
func (e *tileEngine) solve(ctx context.Context, meta trace.Meta, workers int, tr *trace.Recorder) error {
	if isDone(e.done) {
		return canceledErr(ctx, meta.Solver, 0)
	}
	e.startLoops()

	solver, executed := meta.Solver, e.executed()
	if tr != nil {
		meta.Executed, meta.Workers = executed, workers
		tr.BeginSolve(meta)
		defer tr.EndSolve()
		e.lanes = make([]*trace.Lane, workers)
		for w := range e.lanes {
			e.lanes[w] = tr.Lane(w)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			pprof.Do(ctx, workerLabels(solver, executed, w), func(context.Context) { e.work(w) })
		}(w)
	}
	pprof.Do(ctx, workerLabels(solver, executed, 0), func(context.Context) { e.work(0) })
	wg.Wait()

	if e.left.Load() > 0 {
		return canceledErr(ctx, solver, e.firstUnfinishedRow())
	}
	return nil
}
