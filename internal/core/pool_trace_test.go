package core

import (
	"context"
	"testing"

	"repro/internal/table"
	"repro/internal/trace"
)

// traceKinds aggregates an event stream by kind.
func traceKinds(evs []trace.Event) map[trace.Kind]int {
	m := map[trace.Kind]int{}
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

// TestPoolTraceCoversAllCells checks the pool's chunk/inline spans
// account for every cell exactly once, and that the traced solve still
// computes the right table.
func TestPoolTraceCoversAllCells(t *testing.T) {
	p := testProblem(DepW|DepN, 64, 57)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 12)
	got, err := SolvePool(context.Background(), p,
		Options{NativeWorkers: 4, NativeChunk: 16, Tracer: rec})
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
	var cells int64
	perFront := map[int32]int64{}
	for _, e := range evs {
		if e.Kind == trace.KindChunk || e.Kind == trace.KindInline {
			cells += e.B - e.A
			perFront[e.Front] += e.B - e.A
		}
	}
	w := NewWavefronts(AntiDiagonal, 64, 57)
	var wantCells int64
	for ft := 0; ft < w.Fronts; ft++ {
		if got := perFront[int32(ft)]; got != int64(w.Size(ft)) {
			t.Errorf("front %d traced %d cells, want %d", ft, got, w.Size(ft))
		}
		wantCells += int64(w.Size(ft))
	}
	if cells != wantCells {
		t.Errorf("traced %d cells total, want %d", cells, wantCells)
	}

	kinds := traceKinds(evs)
	if kinds[trace.KindSolve] != 1 {
		t.Errorf("KindSolve count = %d, want 1", kinds[trace.KindSolve])
	}
	if kinds[trace.KindFront] == 0 || kinds[trace.KindBarrier] == 0 {
		t.Errorf("pool trace kinds = %v, want front and barrier events", kinds)
	}
	meta := rec.Meta()
	if meta.Solver != "pool" || meta.Workers != 4 || meta.Clock != "wall" {
		t.Errorf("meta = %+v", meta)
	}
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

// TestSimTraceImportsTimeline checks a simulated solve imports its
// timeline onto the tracer with the simulated clock.
func TestSimTraceImportsTimeline(t *testing.T) {
	p := testProblem(DepW|DepNW|DepN, 64, 64)
	rec := trace.NewRecorder(1 << 12)
	if _, err := SolveHetero(p, Options{TSwitch: -1, TShare: -1, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if meta := rec.Meta(); meta.Clock != "sim" || meta.Solver != "hetero" {
		t.Errorf("meta = %+v, want sim-clock hetero trace", rec.Meta())
	}
	kinds := traceKinds(rec.Events())
	if kinds[trace.KindPhase] == 0 {
		t.Errorf("sim trace kinds = %v, want imported phase spans", kinds)
	}
}
