package lddp_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/lddp"
)

// schedStrategies are the strategies Submit accepts; all three run the
// tile engine on the scheduler.
var schedStrategies = []lddp.Strategy{lddp.Auto, lddp.Parallel, lddp.Async}

// TestSchedulerBlockedSolveDoesNotStallOthers pins the tile scheduler's
// point: a worker blocked inside one solve's tile leaves the other
// workers free for other solves. On a 2-worker scheduler, solve A's F
// blocks at one cell; solve B, submitted after, must finish while A is
// still blocked, whatever A's strategy.
func TestSchedulerBlockedSolveDoesNotStallOthers(t *testing.T) {
	for _, st := range schedStrategies {
		t.Run(st.String(), func(t *testing.T) {
			s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			blocked, gate := make(chan struct{}), make(chan struct{})
			var once sync.Once
			a := schedProblem(64, 64)
			inner := a.F
			a.F = func(i, j int, nb lddp.Neighbors[int64]) int64 {
				if i == 10 && j == 5 {
					once.Do(func() { close(blocked) })
					<-gate
				}
				return inner(i, j, nb)
			}
			subA, err := lddp.Submit(context.Background(), s, a, lddp.WithStrategy(st))
			if err != nil {
				t.Fatal(err)
			}
			defer close(gate)
			<-blocked
			// Let the other worker settle first: a scheduler that keeps it
			// waiting inside A (say, on a unit of A it claimed) must be
			// caught, not raced past by an early B.
			time.Sleep(20 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			b := schedProblem(48, 40)
			gotB, err := lddp.SolveOn(ctx, s, b, lddp.WithStrategy(st))
			if err != nil {
				t.Fatalf("solve B while A is blocked: %v", err)
			}
			select {
			case <-subA.Done():
				t.Fatal("solve A finished while its cell was blocked")
			default:
			}
			wantB, err := lddp.Solve(context.Background(), b, lddp.WithStrategy(lddp.Sequential))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.Rows; i++ {
				for j := 0; j < b.Cols; j++ {
					if wantB.Grid.At(i, j) != gotB.At(i, j) {
						t.Fatalf("solve B cell (%d,%d): %d, want %d", i, j, gotB.At(i, j), wantB.Grid.At(i, j))
					}
				}
			}
		})
	}
}

// TestSchedulerWorkerCellsCoverTable checks the scheduler's per-worker
// load accounting counts table cells, not scheduling units, for every
// strategy Submit accepts.
func TestSchedulerWorkerCellsCoverTable(t *testing.T) {
	for _, st := range schedStrategies {
		t.Run(st.String(), func(t *testing.T) {
			s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const rows, cols = 70, 600
			if _, err := lddp.SolveOn(context.Background(), s, schedProblem(rows, cols), lddp.WithStrategy(st)); err != nil {
				t.Fatal(err)
			}
			var cells, tiles int64
			for _, w := range s.Stats().Workers {
				cells += w.Cells
				tiles += w.Tiles
			}
			if cells != rows*cols {
				t.Errorf("worker cells sum to %d, want %d", cells, rows*cols)
			}
			if tiles < rows {
				t.Errorf("worker tiles sum to %d, want at least one per row (%d)", tiles, rows)
			}
		})
	}
}

func schedProblem(rows, cols int) *lddp.Problem[int64] {
	return &lddp.Problem[int64]{
		Name: "facade-sched", Rows: rows, Cols: cols,
		Deps: lddp.DepW | lddp.DepN,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			return (nb.W*3 + nb.N + int64(i*7+j)) % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return int64(i - j) },
		BytesPerCell: 8,
	}
}

func TestSchedulerFacadeMatchesSolve(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := schedProblem(50, 60)
	want, err := lddp.Solve(context.Background(), p, lddp.WithStrategy(lddp.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lddp.SolveOn(context.Background(), s, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			if want.Grid.At(i, j) != got.At(i, j) {
				t.Fatalf("cell (%d,%d): scheduler %d != sequential %d", i, j, got.At(i, j), want.Grid.At(i, j))
			}
		}
	}
	snap := lddp.NewMetrics(s).Snapshot()
	if snap.Sched.Submitted != 1 || snap.Sched.Started != 1 || snap.Sched.Done != 1 {
		t.Errorf("sched metrics = %+v, want submitted/started/done = 1", snap.Sched)
	}
	if snap.Solves != 1 || snap.Errors != 0 {
		t.Errorf("solves/errors = %d/%d, want 1/0", snap.Solves, snap.Errors)
	}
}

// TestSchedulerFacadeAsyncStrategy submits an async-strategy solve to the
// shared scheduler and checks the tile engine's grid matches the
// sequential reference when assembled by scheduler workers.
func TestSchedulerFacadeAsyncStrategy(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := schedProblem(77, 61)
	want, err := lddp.Solve(context.Background(), p, lddp.WithStrategy(lddp.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lddp.SolveOn(context.Background(), s, p, lddp.WithStrategy(lddp.Async))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			if want.Grid.At(i, j) != got.At(i, j) {
				t.Fatalf("cell (%d,%d): async-on-scheduler %d != sequential %d", i, j, got.At(i, j), want.Grid.At(i, j))
			}
		}
	}
}

func TestSubmitRejectsUnsupportedOptions(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := schedProblem(4, 4)
	if _, err := lddp.Submit(context.Background(), s, p, lddp.WithStrategy(lddp.Tiled)); err == nil {
		t.Error("Tiled strategy accepted by Submit")
	}
}

func TestSchedulerFacadeRejectionTypes(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err = lddp.SolveOn(context.Background(), s, schedProblem(4, 4))
	var rej *lddp.Rejected
	if !errors.As(err, &rej) || !errors.Is(err, lddp.ErrSchedulerClosed) {
		t.Fatalf("submit after close: got %v, want *Rejected wrapping ErrSchedulerClosed", err)
	}
}

func TestSchedulerFacadeTracer(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := lddp.NewTracer()
	if _, err := lddp.SolveOn(context.Background(), s, schedProblem(40, 40),
		lddp.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	if tr.Meta().Solver != "sched" {
		t.Errorf("trace solver = %q, want \"sched\"", tr.Meta().Solver)
	}
	if len(tr.Events()) == 0 {
		t.Error("tracer recorded no events")
	}
}
