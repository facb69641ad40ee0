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

// asyncSink records the full Collector stream of one tile-engine solve.
type asyncSink struct {
	starts  []SolveInfo
	workers []WorkerStats
	phases  []string
	ends    []error
}

func (s *asyncSink) SolveStart(info SolveInfo)          { s.starts = append(s.starts, info) }
func (s *asyncSink) FrontSize(int)                      {}
func (s *asyncSink) WorkerStats(ws WorkerStats)         { s.workers = append(s.workers, ws) }
func (s *asyncSink) Transfer(TransferStats)             {}
func (s *asyncSink) Phase(name string, _ time.Duration) { s.phases = append(s.phases, name) }
func (s *asyncSink) SolveEnd(err error)                 { s.ends = append(s.ends, err) }

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
// that holds an unfinished tile.
func TestMidSolveCancelAsync(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var cells atomic.Int64
	p := testProblem(DepW|DepNW|DepN, 256, 256)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 1000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	g, err := SolveParallelContext(ctx, p, Options{NativeWorkers: 4})
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async" {
		t.Errorf("Canceled.Solver = %q, want async", c.Solver)
	}
	// The 256-cell segments are whole rows, which run one after another.
	// The row holding the 1000th cell completes (the context is polled
	// between tile rows), so the first unfinished row is the next one.
	if want := 1000/256 + 1; c.Front != want {
		t.Errorf("Canceled.Front = %d, want row %d", c.Front, want)
	}
	if total := cells.Load(); total >= 256*256 {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestAsyncCanceledSolvesLeakNoGoroutines runs repeated mid-solve
// cancellations, on whole-row segments (one worker runs the chain, the
// others wait on the ready queue) and on 8x8 tiles, and checks the
// goroutine count returns to baseline: a worker blocked on the ready
// queue must observe the cancel and exit.
func TestAsyncCanceledSolvesLeakNoGoroutines(t *testing.T) {
	leak := testutil.StartLeakCheck()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var cells atomic.Int64
		p := testProblem(DepW|DepNW|DepN|DepNE, 128, 128)
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

// TestAsyncCollectorEvents checks the Collector wiring: one SolveStart
// naming the async executor and its tile shape, per-worker stats whose
// cells sum to the table, the async phase, and a nil SolveEnd.
func TestAsyncCollectorEvents(t *testing.T) {
	sink := &asyncSink{}
	p := testProblem(DepW|DepN, 96, 83)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveParallelOpt(p, Options{NativeWorkers: 4, Collector: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("collected solve computed a different table")
	}
	if len(sink.starts) != 1 {
		t.Fatalf("SolveStart count = %d, want 1", len(sink.starts))
	}
	info := sink.starts[0]
	if info.Solver != "async" || info.Executed != "tiles 1x83" || info.Workers != 4 {
		t.Errorf("SolveInfo = %+v, want async on whole-row 1x83 tiles with 4 workers", info)
	}
	if len(sink.workers) != 4 {
		t.Fatalf("WorkerStats count = %d, want 4", len(sink.workers))
	}
	cells := 0
	for _, ws := range sink.workers {
		cells += ws.Cells
	}
	if cells != 96*83 {
		t.Errorf("worker cells sum to %d, want %d", cells, 96*83)
	}
	if len(sink.phases) != 1 || sink.phases[0] != "async" {
		t.Errorf("phases = %v, want [async]", sink.phases)
	}
	if len(sink.ends) != 1 || sink.ends[0] != nil {
		t.Errorf("SolveEnd = %v, want one nil", sink.ends)
	}
}

// TestAsyncTraceEvents checks the Recorder wiring: one KindTask span per
// tile accounts for every cell exactly once, KindReady queue-depth samples
// appear, and — the point of the executor — not a single barrier or front
// event.
func TestAsyncTraceEvents(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 256, 256)
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
	if kinds[trace.KindBarrier] != 0 || kinds[trace.KindFront] != 0 {
		t.Errorf("async trace kinds = %v, want zero barrier and front events", kinds)
	}
	if kinds[trace.KindTask] != 256 {
		t.Errorf("async trace kinds = %v, want one task span per 1x256 tile", kinds)
	}
	if kinds[trace.KindReady] == 0 {
		t.Errorf("async trace kinds = %v, want ready-queue samples on a %d-cell solve", kinds, 256*256)
	}
	var cells int64
	for _, e := range evs {
		if e.Kind == trace.KindTask {
			cells += e.B - e.A
		}
	}
	if cells != 256*256 {
		t.Errorf("task spans cover %d cells, want %d", cells, 256*256)
	}
	if meta := rec.Meta(); meta.Solver != "async" || meta.Workers != 4 {
		t.Errorf("meta = %+v, want async solver with 4 workers", meta)
	}
	rep := trace.Analyze(rec.Meta(), evs, 0)
	if rep.Stall.BarrierNS != 0 {
		t.Errorf("analyzer reports %dns barrier stall on an async trace", rep.Stall.BarrierNS)
	}
	if rep.Queue.Samples == 0 {
		t.Error("analyzer folded no ready-queue samples")
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
// exactly once.
func TestAsyncWorkloadRunsOnForeignWorkers(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN|DepNE, 128, 97)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	wl, finish, err := NewTileWorkload(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Info.Solver != "sched" || wl.TotalCells != 128*97 || wl.Tiles != 128 {
		t.Fatalf("workload solver=%q cells=%d tiles=%d, want sched, %d cells in 128 row tiles",
			wl.Info.Solver, wl.TotalCells, wl.Tiles, 128*97)
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
// with Front naming a row inside it.
func TestAsyncWorkloadCancelUnblocksLoops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	p := testProblem(DepW|DepNW|DepN, 256, 256)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 2000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	wl, _, err := NewTileWorkload(ctx, p, 4)
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
	if total := cells.Load(); total >= 256*256 {
		t.Errorf("workload computed all %d cells despite cancellation", total)
	}
	if f := wl.Front(); f <= 0 || f >= p.Rows {
		t.Errorf("Front() after cancel = %d, want a row inside (0, %d)", f, p.Rows)
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
