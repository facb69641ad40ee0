package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// wantCanceled asserts err is a *Canceled unwrapping to context.Canceled
// (or the given cause).
func wantCanceled(t *testing.T, err error, cause error) *Canceled {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("error %v (%T) is not a *Canceled", err, err)
	}
	if cause == nil {
		cause = context.Canceled
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not unwrap to %v", err, cause)
	}
	if c.Solver == "" {
		t.Error("Canceled.Solver is empty")
	}
	if c.Front < 0 {
		t.Errorf("Canceled.Front = %d, want >= 0", c.Front)
	}
	return c
}

// TestExpiredContextAllExecutors checks that every context-honoring entry
// point returns promptly with a *Canceled error when handed an
// already-expired context, without computing the table.
func TestExpiredContextAllExecutors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	p := testProblem(DepW|DepNW|DepN, 64, 64) // anti-diagonal
	ph := testProblem(DepNW|DepN|DepNE, 64, 64)
	opts := Options{TSwitch: -1, TShare: -1}

	accel := Accelerator{Name: "k20", Model: opts.withDefaults(NewWavefronts(Horizontal, 64, 64), TransferTwoWay).Platform.GPU}

	cases := []struct {
		name string
		run  func() error
	}{
		{"sequential", func() error { _, err := SolveContext(ctx, p); return err }},
		{"tiles", func() error { _, err := SolveParallelContext(ctx, p, Options{NativeWorkers: 4}); return err }},
		{"tiles-1worker", func() error { _, err := SolveParallelContext(ctx, p, Options{NativeWorkers: 1}); return err }},
		{"bands", func() error { _, err := SolveParallelContext(ctx, ph, Options{NativeWorkers: 4}); return err }},
		{"hetero-antidiag", func() error { _, err := SolveHeteroContext(ctx, p, opts); return err }},
		{"hetero-horizontal", func() error { _, err := SolveHeteroContext(ctx, ph, opts); return err }},
		{"hetero-invertedl", func() error {
			_, err := SolveHeteroContext(ctx, testProblem(DepNW, 64, 64), Options{TSwitch: -1, TShare: -1, PreferInvertedL: true})
			return err
		}},
		{"hetero-knight", func() error { _, err := SolveHeteroContext(ctx, testProblem(DepW|DepNE, 64, 64), opts); return err }},
		{"cpu-only", func() error { _, err := SolveCPUOnlyContext(ctx, p, opts); return err }},
		{"gpu-only", func() error { _, err := SolveGPUOnlyContext(ctx, p, opts); return err }},
		{"multi", func() error { _, err := SolveHeteroMultiContext(ctx, ph, opts, []Accelerator{accel}, nil); return err }},
		{"tiled", func() error { _, err := SolveTiledContext(ctx, p, 8, Options{NativeWorkers: 2}); return err }},
		{"resilient", func() error { _, _, err := SolveResilientContext(ctx, p, 3, nil); return err }},
		{"seq3", func() error { _, err := Solve3Context(ctx, testProblem3(Dep3X|Dep3Y|Dep3Z, 12, 12, 12)); return err }},
		{"tiles3", func() error {
			_, err := SolveParallel3Context(ctx, testProblem3(Dep3X|Dep3Y|Dep3Z, 12, 12, 12), 4)
			return err
		}},
		{"hetero3", func() error {
			_, err := solveSim3(ctx, testProblem3(Dep3X|Dep3Y|Dep3Z, 12, 12, 12), Options{TSwitch: -1, TShare: -1}, modeHetero)
			return err
		}},
		{"cpu-only3", func() error {
			_, err := solveSim3(ctx, testProblem3(Dep3X, 12, 12, 12), Options{TSwitch: -1, TShare: -1}, modeCPUOnly)
			return err
		}},
		{"gpu-only3", func() error {
			_, err := solveSim3(ctx, testProblem3(Dep3X, 12, 12, 12), Options{TSwitch: -1, TShare: -1}, modeGPUOnly)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCanceled(t, tc.run(), nil)
		})
	}
}

// TestMidSolveCancel3 cancels from inside a 3-D recurrence and checks
// the tile engine's k-column workers abort mid-box, with Front an i-layer
// below which every cell was computed.
func TestMidSolveCancel3(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var cells atomic.Int64
	const n = 48
	p := testProblem3(Dep3X|Dep3Y|Dep3Z, n, n, n)
	inner := p.F
	p.F = func(i, j, k int, nb Neighbors3[int64]) int64 {
		if cells.Add(1) == 5000 {
			cancel()
		}
		return inner(i, j, k, nb)
	}
	g, err := SolveParallel3Context(ctx, p, 4)
	c := wantCanceled(t, err, nil)
	if g != nil {
		t.Error("canceled solve returned a non-nil grid")
	}
	if c.Solver != "async3" {
		t.Errorf("Canceled.Solver = %q, want async3", c.Solver)
	}
	if c.Front*n*n > int(cells.Load()) {
		t.Errorf("Canceled.Front = %d, but only %d cells were computed", c.Front, cells.Load())
	}
	if total := cells.Load(); total >= n*n*n {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestMidSolveCancelBands cancels inside a horizontal-pattern solve, whose
// tiles are column bands one row high: workers blocked on the ready queue
// waiting for a neighbour band must observe the cancel rather than
// deadlock, and Front must name a row the solve did not finish.
func TestMidSolveCancelBands(t *testing.T) {
	midSolveCancel(t, DepN|DepNE)
}

// TestMidSolveCancelSkewed is TestMidSolveCancelBands on a knight-class
// mask, whose tiles are skewed 64x256 blocks in (i, u = i + j): Front
// must still name a row below which every cell was computed, and no
// worker may outlive the solve.
func TestMidSolveCancelSkewed(t *testing.T) {
	leak := testutil.StartLeakCheck()
	midSolveCancel(t, DepW|DepNW|DepN|DepNE)
	if err := leak.Err(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// midSolveCancel cancels a 512x512 solve under mask m at 4 workers after
// 5000 cells and checks the *Canceled it returns.
func midSolveCancel(t *testing.T, m DepMask) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var cells atomic.Int64
	p := testProblem(m, 512, 512)
	inner := p.F
	p.F = func(i, j int, nb Neighbors[int64]) int64 {
		if cells.Add(1) == 5000 {
			cancel()
		}
		return inner(i, j, nb)
	}
	_, err := SolveParallelContext(ctx, p, Options{NativeWorkers: 4})
	c := wantCanceled(t, err, nil)
	if c.Front*512 > int(cells.Load()) {
		t.Errorf("Canceled.Front = %d, but only %d cells were computed", c.Front, cells.Load())
	}
	if total := cells.Load(); total >= 512*512 {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestMidSolveCancelHetero cancels inside a simulated heterogeneous solve.
func TestMidSolveCancelHetero(t *testing.T) {
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
	_, err := SolveHeteroContext(ctx, p, Options{TSwitch: -1, TShare: -1})
	c := wantCanceled(t, err, nil)
	if c.Solver != "hetero" {
		t.Errorf("Canceled.Solver = %q, want hetero", c.Solver)
	}
	if total := cells.Load(); total >= 256*256 {
		t.Errorf("solve computed all %d cells despite cancellation", total)
	}
}

// TestCancelCausePropagates checks the *Canceled error unwraps to the
// context's cause, not just context.Canceled.
func TestCancelCausePropagates(t *testing.T) {
	cause := errors.New("operator pulled the plug")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	_, err := SolveParallelContext(ctx, testProblem(DepW|DepN, 64, 64), Options{NativeWorkers: 2})
	wantCanceled(t, err, cause)
}

// TestDeadlineExpiryIsCanceled checks deadline expiry surfaces the same
// way, unwrapping to context.DeadlineExceeded.
func TestDeadlineExpiryIsCanceled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // guarantee expiry

	_, err := SolveParallelContext(ctx, testProblem(DepW|DepN, 64, 64), Options{NativeWorkers: 2})
	wantCanceled(t, err, context.DeadlineExceeded)
}

// TestCanceledSolvesLeakNoGoroutines runs many mid-solve cancellations
// of 3-D boxes on 4 workers and checks no goroutine outlives them: a
// worker waiting on the ready queue for a k-column another worker holds
// must observe the cancel and exit.
func TestCanceledSolvesLeakNoGoroutines(t *testing.T) {
	leak := testutil.StartLeakCheck()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var cells atomic.Int64
		deps := Dep3X | Dep3Y | Dep3Z
		if iter%2 == 1 {
			deps = Dep3XY | Dep3YZ | Dep3XZ
		}
		p := testProblem3(deps, 24, 24, 24)
		inner := p.F
		p.F = func(i, j, k int, nb Neighbors3[int64]) int64 {
			if cells.Add(1) == int64(100*(iter+1)) {
				cancel()
			}
			return inner(i, j, k, nb)
		}
		if _, err := SolveParallel3Context(ctx, p, 4); err == nil {
			t.Fatalf("iter %d: expected cancellation error", iter)
		}
		cancel()
	}
	if err := leak.Err(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCanceledErrorMessage pins the documented error shape.
func TestCanceledErrorMessage(t *testing.T) {
	err := &Canceled{Solver: "async", Front: 7, Err: context.Canceled}
	want := fmt.Sprintf("core: async solve canceled at front 7: %v", context.Canceled)
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}
