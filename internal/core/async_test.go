package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/table"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestAsyncExpiredContext checks the tile engine returns promptly with a
// *Canceled when handed an already-expired context.
func TestAsyncExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := SolveParallelContext(ctx, testProblem(DepW|DepN, 64, 64), Options{NativeWorkers: 4})
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async" {
		t.Errorf("Canceled.Solver = %q, want async", c.Solver)
	}
}

// TestMidSolveCancelAsync cancels from inside the recurrence and checks
// the tile-engine workers abort mid-table with Front at the first row
// that holds an unfinished tile. 256x1024 at 4 workers runs on 1x256
// segments, four per row, which pipeline across the workers.
func TestMidSolveCancelAsync(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const rows, cols, workers = 256, 1024, 4
	var cells, atCancel atomic.Int64
	p := testProblem(DepW|DepNW|DepN, rows, cols)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 1000 {
			cancel()
			atCancel.Store(cells.Load())
		}
		return inner(i, j, nb)
	}
	g, err := SolveParallelContext(ctx, p, Options{NativeWorkers: workers})
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async" {
		t.Errorf("Canceled.Solver = %q, want async", c.Solver)
	}
	// Every row above Front is finished. The context is polled before
	// each tile row, here each 256-cell tile, so once the cancel has
	// happened every worker finishes at most the tile it holds.
	total := cells.Load()
	if c.Front < 0 || c.Front >= rows || int64(c.Front*cols) > total {
		t.Errorf("Canceled.Front = %d, but only %d cells were computed", c.Front, total)
	}
	if after := total - atCancel.Load(); after > workers*256 {
		t.Errorf("solve computed %d cells after the cancel, want at most %d: one tile per worker", after, workers*256)
	}
	if total >= rows*cols {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestAsyncCanceledSolvesLeakNoGoroutines runs repeated mid-solve
// cancellations, on skewed 64x256 tiles (two tile rows of five) and on
// 8x8 tiles, and checks the goroutine count returns to baseline: a worker
// blocked on the ready queue must observe the cancel and exit.
func TestAsyncCanceledSolvesLeakNoGoroutines(t *testing.T) {
	leak := testutil.StartLeakCheck()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var cells atomic.Int64
		p := testProblem(DepW|DepNW|DepN|DepNE, 128, 1024)
		inner := p.F
		p.F = func(i, j int, nb Neighbors[int64]) int64 {
			if cells.Add(1) == int64(100*(iter+1)) {
				cancel()
			}
			return inner(i, j, nb)
		}
		var err error
		if iter%2 == 0 {
			_, err = SolveParallelContext(ctx, p, Options{NativeWorkers: 4})
		} else {
			_, err = SolveTiledContext(ctx, p, 8, Options{NativeWorkers: 4})
		}
		if err == nil {
			t.Fatalf("iter %d: expected cancellation error", iter)
		}
		cancel()
	}
	if err := leak.Err(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTracerMeta checks the solve description the tile engine hands
// its Tracer (the async executor, its tile shape and its worker count),
// and that the analyzed trace has one lane per worker whose tile cells
// sum to the table.
func TestAsyncTracerMeta(t *testing.T) {
	rec := trace.NewRecorder(0)
	p := testProblem(DepW|DepN, 256, 1024)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveParallelOpt(p, Options{NativeWorkers: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("traced solve computed a different table")
	}
	meta := rec.Meta()
	if meta.Solver != "async" || meta.Executed != "tiles 1x256" || meta.Workers != 4 {
		t.Errorf("Meta = %+v, want async on 1x256 tiles with 4 workers", meta)
	}
	lanes := trace.Analyze(meta, rec.Events(), 0).Workers
	if len(lanes) != 4 {
		t.Fatalf("analyzed trace has %d worker lanes, want 4", len(lanes))
	}
	var cells int64
	for _, l := range lanes {
		cells += l.Cells
	}
	if cells != 256*1024 {
		t.Errorf("worker lanes cover %d cells, want %d", cells, 256*1024)
	}
}

// TestAsyncTraceEvents checks the Recorder wiring: one KindTask span per
// tile accounts for every cell exactly once, KindReady queue-depth samples
// appear, and nothing else but the solve span is recorded.
func TestAsyncTraceEvents(t *testing.T) {
	const rows, cols = 256, 1024
	p := testProblem(DepW|DepNW|DepN, rows, cols)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 14)
	got, err := SolveParallelOpt(p, Options{NativeWorkers: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("traced solve computed a different table")
	}
	evs := rec.Events()
	if rec.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; grow the test ring", rec.Dropped())
	}
	kinds := traceKinds(evs)
	if kinds[trace.KindTask] != rows*cols/256 {
		t.Errorf("async trace kinds = %v, want one task span per 1x256 tile", kinds)
	}
	if kinds[trace.KindReady] == 0 {
		t.Errorf("async trace kinds = %v, want ready-queue samples on a %d-cell solve", kinds, rows*cols)
	}
	if n := kinds[trace.KindSolve] + kinds[trace.KindTask] + kinds[trace.KindReady]; n != len(evs) {
		t.Errorf("async trace kinds = %v, want only solve, task and ready events", kinds)
	}
	var cells int64
	for _, e := range evs {
		if e.Kind == trace.KindTask {
			cells += e.B - e.A
		}
	}
	if cells != rows*cols {
		t.Errorf("task spans cover %d cells, want %d", cells, rows*cols)
	}
	if meta := rec.Meta(); meta.Solver != "async" || meta.Workers != 4 {
		t.Errorf("meta = %+v, want async solver with 4 workers", meta)
	}
	rep := trace.Analyze(rec.Meta(), evs, 0)
	if rep.Critical.Kind != "async" {
		t.Errorf("analyzer critical path = %+v, want the async lane bound", rep.Critical)
	}
	if rep.Queue.Samples == 0 {
		t.Error("analyzer folded no ready-queue samples")
	}
}

// TestAsyncWholeTableTile pins tileShape's chain rule: a table whose one
// tile column would span it runs as one whole-table tile on one worker,
// whether the column is a row segment (the levenshtein mask at 256² on
// two workers) or a skewed tile (a knight-class mask whose rows + cols - 1
// wavefront indices fit one tile), while {W}'s row segments, which wait
// on nothing, stay cut. The conformance matrix's 7x600 and 130x140 shapes
// still take two or more tile columns under every mask.
func TestAsyncWholeTableTile(t *testing.T) {
	for _, tc := range []struct {
		m          DepMask
		rows, cols int
		executed   string
		workers    int
	}{
		{DepW | DepNW | DepN, 256, 256, "tiles 256x256", 1},
		{DepW | DepNW | DepN | DepNE, 100, 150, "tiles 100x150", 1},
		{DepN | DepNE, 256, 200, "tiles 256x200", 1},
		{DepW, 256, 256, "tiles 1x256", 2},
	} {
		p := testProblem(tc.m, tc.rows, tc.cols)
		rec := trace.NewRecorder(0)
		if _, err := SolveParallelOpt(p, Options{NativeWorkers: 2, Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		if meta := rec.Meta(); meta.Executed != tc.executed || meta.Workers != tc.workers {
			t.Errorf("mask %s %dx%d on 2 workers ran %q on %d workers, want %q on %d",
				tc.m, tc.rows, tc.cols, meta.Executed, meta.Workers, tc.executed, tc.workers)
		}
	}
	for _, m := range AllDepMasks() {
		for _, d := range [][2]int{{7, 600}, {130, 140}} {
			for _, workers := range []int{2, 4} {
				th, tw := tileShape(m, d[0], d[1], 1, workers)
				e, _, err := newTileEngine(context.Background(), m, d[0], d[1], 1, workers, th, tw)
				if err != nil {
					t.Fatal(err)
				}
				if d == [2]int{7, 600} && e.tc < 2 {
					t.Errorf("mask %s %dx%d on %d workers: %s is one tile column", m, d[0], d[1], workers, e.executed())
				}
				if skews(m) && d == [2]int{130, 140} && e.tc < 2 {
					t.Errorf("mask %s %dx%d on %d workers: %s is one tile column", m, d[0], d[1], workers, e.executed())
				}
			}
		}
	}
}

// runForeign drives wl the way the scheduler does: workers goroutines
// the engine does not own take ready tiles off one mutex-guarded queue,
// run each with its kept continuation, and queue the rest. It returns the
// tiles run and their cells once every worker is out of work; a tile
// whose Run reports a canceled context stops the worker that held it.
func runForeign(wl *Workload, workers int) (tiles, cells int64) {
	var mu sync.Mutex
	queue := append([]int32(nil), wl.Sources...)
	var tilesRun, cellsRun atomic.Int64
	var canceled atomic.Bool
	over := func() bool { return canceled.Load() || tilesRun.Load() == int64(wl.Tiles) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ready [4]int32
			for !over() {
				mu.Lock()
				if len(queue) == 0 {
					mu.Unlock()
					runtime.Gosched()
					continue
				}
				t := queue[0]
				queue = queue[1:]
				mu.Unlock()
				for {
					c, n, ok := wl.Run(t, &ready)
					if !ok {
						canceled.Store(true)
						return
					}
					tilesRun.Add(1)
					cellsRun.Add(int64(c))
					if n == 0 {
						break
					}
					mu.Lock()
					queue = append(queue, ready[1:n]...)
					mu.Unlock()
					t = ready[0]
				}
			}
		}()
	}
	wg.Wait()
	return tilesRun.Load(), cellsRun.Load()
}

// TestAsyncWorkloadRunsOnForeignWorkers drives NewTileWorkload the way
// the scheduler does — ready tiles taken and run by goroutines the engine
// does not own — and checks the assembled grid and that every tile ran
// exactly once. The knight-class mask cuts 130x140 into 3 x 2 skewed
// 64x256 tiles, one of which holds no cell and is not a tile to run.
func TestAsyncWorkloadRunsOnForeignWorkers(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN|DepNE, 130, 140)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	wl, finish, err := NewTileWorkload(context.Background(), p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Info.Solver != "sched" || wl.Info.Executed != "tiles 64x256 skewed" || wl.TotalCells != 130*140 || wl.Tiles != 5 {
		t.Fatalf("workload solver=%q executed=%q cells=%d tiles=%d, want sched, %d cells in 5 skewed 64x256 tiles",
			wl.Info.Solver, wl.Info.Executed, wl.TotalCells, wl.Tiles, 130*140)
	}
	tiles, cells := runForeign(wl, 4)
	if tiles != int64(wl.Tiles) || cells != wl.TotalCells {
		t.Errorf("ran %d tiles / %d cells, want %d / %d", tiles, cells, wl.Tiles, wl.TotalCells)
	}
	if got := wl.Front(); got != p.Rows {
		t.Errorf("Front() after completion = %d, want %d", got, p.Rows)
	}
	if got := finish(); !table.EqualComparable(want, got) {
		t.Error("workload grid differs from sequential oracle")
	}
}

// TestAsyncWorkloadCancelUnblocksLoops cancels the workload's context
// mid-solve and checks the foreign loops stop short of the full table,
// with Front naming a row inside it below which every cell was computed.
func TestAsyncWorkloadCancelUnblocksLoops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	p := testProblem(DepW|DepNW|DepN, 256, 1024)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 2000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	wl, _, err := NewTileWorkload(ctx, p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		runForeign(wl, 4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled workload loops did not return")
	}
	total := cells.Load()
	if total >= 256*1024 {
		t.Errorf("workload computed all %d cells despite cancellation", total)
	}
	if f := wl.Front(); f < 0 || f >= p.Rows || int64(f*p.Cols) > total {
		t.Errorf("Front() after cancel = %d, want a row inside [0, %d) below which all %d computed cells lie", f, p.Rows, total)
	}
}

// TestAsyncRejectsOversizedTables pins the int32 tile-index ceiling: the
// engine must refuse, with a clear error, tile grids whose tile count does
// not fit the ready queue's int32 indices — before allocating anything.
func TestAsyncRejectsOversizedTables(t *testing.T) {
	p := testProblem(DepW|DepN, 1, 1)
	p.Rows, p.Cols = 1<<16, 1<<16 // 2^32 cells, 2^32 tiles of one cell
	_, err := SolveTiled(p, 1, 2)
	if err == nil {
		t.Fatal("expected an error for a 2^32-tile grid")
	}
	if !strings.Contains(err.Error(), "tile engine supports at most") {
		t.Errorf("error = %v, want the documented tile-count ceiling", err)
	}
}

// traceKinds aggregates an event stream by kind.
func traceKinds(evs []trace.Event) map[trace.Kind]int {
	m := map[trace.Kind]int{}
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

// TestTiledTraceSolves checks the tiled executor wires the tracer: one
// task span per 16x16 tile, covering every cell.
func TestTiledTraceSolves(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 64, 64)
	rec := trace.NewRecorder(1 << 12)
	if _, err := SolveTiledContext(context.Background(), p, 16,
		Options{NativeWorkers: 2, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	var tasks, cells int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindTask {
			tasks++
			cells += e.B - e.A
		}
	}
	if tasks != 16 || cells != 64*64 {
		t.Errorf("tiled trace has %d task spans over %d cells, want 16 over %d", tasks, cells, 64*64)
	}
	if meta := rec.Meta(); meta.Solver != "tiled" || meta.Executed != "tiles 16x16" {
		t.Errorf("meta = %+v, want tiled on 16x16 tiles", meta)
	}
}

// TestSolveParallelHorizontalBands checks every horizontal-class
// contributing set — left-only (NW), right-only (NE), both, and none
// ({N}, where bands run fully independently) — and the vertical ones on
// the tile engine. It cuts {N}, {NW,N} and {N,NE} into one-row column
// bands that wait only on their neighbours' previous row (1100 columns
// give 2, 4 and 5 bands at 2, 4 and 9 workers; {N,NE}'s run right to
// left); the masks that read NW
// with NE get skewed tiles in (i, u = i + j) instead, one 40-row tile row
// of 5 tiles at 256 u-columns each.
func TestSolveParallelHorizontalBands(t *testing.T) {
	const rows, cols = 40, 1100
	masks := []DepMask{DepN, DepNW | DepN, DepN | DepNE, DepNW | DepN | DepNE, DepNW | DepNE,
		DepW, DepW | DepNW}
	for _, m := range masks {
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 9} {
			got, err := SolveParallel(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(want, got) {
				t.Fatalf("mask %s workers=%d: band tiles differ from Solve", m, workers)
			}
		}
	}
}
