package lddp_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/lddp"
)

// testProblem mixes every contributing neighbour with a positional term so
// any mis-scheduled read changes the output.
func testProblem(m lddp.DepMask, rows, cols int) *lddp.Problem[int64] {
	return &lddp.Problem[int64]{
		Name: "facade-" + m.String(),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			v := int64(i*31+j*17) % 13
			if m.Has(lddp.DepW) {
				v += 2*nb.W + 1
			}
			if m.Has(lddp.DepNW) {
				v += 3 * nb.NW
			}
			if m.Has(lddp.DepN) {
				v += max(nb.N, v)
			}
			if m.Has(lddp.DepNE) {
				v += nb.NE ^ 5
			}
			return v % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return int64(i + 2*j) },
		BytesPerCell: 8,
	}
}

// TestSolveMatchesReferenceAllMasksAllStrategies checks lddp.Solve
// reproduces the sequential reference for every one of the 15 contributing
// sets on every grid-producing strategy.
func TestSolveMatchesReferenceAllMasksAllStrategies(t *testing.T) {
	ctx := context.Background()
	for _, m := range core.AllDepMasks() {
		p := testProblem(m, 48, 37)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatalf("mask %s: reference solve: %v", m, err)
		}
		for _, s := range []lddp.Strategy{
			lddp.Auto, lddp.Sequential, lddp.Parallel, lddp.Tiled,
			lddp.Hetero, lddp.SimCPU, lddp.SimGPU, lddp.Async,
		} {
			res, err := lddp.Solve(ctx, p, lddp.WithStrategy(s), lddp.WithWorkers(3))
			if err != nil {
				t.Fatalf("mask %s strategy %s: %v", m, s, err)
			}
			if res.Grid == nil {
				t.Fatalf("mask %s strategy %s: nil grid", m, s)
			}
			if !table.EqualComparable(want, res.Grid) {
				t.Errorf("mask %s strategy %s: grid differs from reference", m, s)
			}
			if res.Pattern != core.Classify(m) {
				t.Errorf("mask %s strategy %s: Pattern = %s, want %s", m, s, res.Pattern, core.Classify(m))
			}
		}
	}
}

// TestSolveMultiStrategy exercises the multi-accelerator path through the
// facade on a horizontal-pattern problem.
func TestSolveMultiStrategy(t *testing.T) {
	p := testProblem(lddp.DepNW|lddp.DepN, 48, 64)
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lddp.Solve(context.Background(), p,
		lddp.WithStrategy(lddp.Multi),
		lddp.WithAccelerators("k20", "gt650m"))
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res.Grid) {
		t.Error("multi grid differs from reference")
	}
	if len(res.Shares) != 3 {
		t.Errorf("Shares = %v, want 3 device spans", res.Shares)
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v, want > 0", res.SimTime)
	}
}

// TestAcceleratorByName resolves each named accelerator model and
// refuses an unknown name.
func TestAcceleratorByName(t *testing.T) {
	for _, n := range []string{"k20", "gt650m", "phi"} {
		a, err := lddp.AcceleratorByName(n)
		if err != nil || a.Name != n {
			t.Errorf("AcceleratorByName(%s) = %v, %v", n, a, err)
		}
	}
	if _, err := lddp.AcceleratorByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

// TestSolveOptionErrors checks option failures surface before any work.
func TestSolveOptionErrors(t *testing.T) {
	p := testProblem(lddp.DepN, 8, 8)
	ctx := context.Background()
	if _, err := lddp.Solve(ctx, p, lddp.WithPlatform("Hetero-Imaginary")); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithAccelerators("warp9")); err == nil {
		t.Error("unknown accelerator accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithStrategy(lddp.Multi)); err == nil {
		t.Error("Multi without accelerators accepted")
	}
	if _, err := lddp.Solve(ctx, p, lddp.WithStrategy(lddp.Strategy(99))); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestSolveRejectsTooManyWorkers checks every strategy that runs the tile
// engine, natively or as the simulated strategies' table fill, validates
// the worker count before starting a worker: a count past
// core.MaxNativeWorkers is a configuration error, not 1025 goroutines.
func TestSolveRejectsTooManyWorkers(t *testing.T) {
	p := testProblem(lddp.DepW|lddp.DepN, 8, 8)
	for _, s := range []lddp.Strategy{lddp.Auto, lddp.Parallel, lddp.Tiled, lddp.Async, lddp.Hetero, lddp.SimCPU, lddp.SimGPU} {
		res, err := lddp.Solve(context.Background(), p, lddp.WithStrategy(s), lddp.WithWorkers(core.MaxNativeWorkers+1))
		if err == nil || res != nil {
			t.Errorf("strategy %s: WithWorkers(%d) returned (%v, %v), want a limit error", s, core.MaxNativeWorkers+1, res, err)
		}
	}
}

// TestSolveCancellation checks the facade propagates *Canceled from every
// strategy.
func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testProblem(lddp.DepW|lddp.DepNW|lddp.DepN, 64, 64)
	for _, s := range []lddp.Strategy{
		lddp.Sequential, lddp.Parallel, lddp.Tiled, lddp.Hetero, lddp.SimCPU, lddp.SimGPU, lddp.Async,
	} {
		_, err := lddp.Solve(ctx, p, lddp.WithStrategy(s))
		var c *lddp.Canceled
		if !errors.As(err, &c) {
			t.Errorf("strategy %s: error %v is not *Canceled", s, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("strategy %s: error %v does not unwrap to context.Canceled", s, err)
		}
	}
}

// transferTotals sums one class of simulated transfers.
type transferTotals struct{ count, bytes, cells int }

// timelineTransfers splits a simulated schedule's transfer ops into
// boundary and bulk by direction. Boundary exchanges are the ops that
// carry a cell count. Direction comes from the copy engine, or, when the
// DisablePipeline ablation puts every transfer on the GPU queue, from the
// label's h2d/d2h prefix, as trace.ImportTimeline classifies them.
func timelineTransfers(tl lddp.Timeline) (boundaryH2D, boundaryD2H, bulkH2D, bulkD2H transferTotals) {
	for _, r := range tl.Records {
		if r.Kind != hetsim.OpTransfer {
			continue
		}
		h2d := r.Resource == hetsim.ResCopyH2D || strings.HasPrefix(r.Label, "h2d")
		c := &bulkD2H
		switch {
		case r.Cells > 0 && h2d:
			c = &boundaryH2D
		case r.Cells > 0:
			c = &boundaryD2H
		case h2d:
			c = &bulkH2D
		}
		c.count++
		c.bytes += r.Bytes
		c.cells += r.Cells
	}
	return
}

// TestMetricsCountersMatchKnownTotals solves a horizontal-pattern problem
// with a fixed split and checks its simulated schedule against the
// analytically known front and transfer totals.
func TestMetricsCountersMatchKnownTotals(t *testing.T) {
	const rows, cols, tShare = 32, 64, 16
	p := testProblem(lddp.DepNW|lddp.DepN|lddp.DepNE, rows, cols) // two-way horizontal
	res, err := lddp.Solve(context.Background(), p,
		lddp.WithStrategy(lddp.Hetero),
		lddp.WithTSwitch(0), lddp.WithTShare(tShare))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != lddp.Horizontal {
		t.Fatalf("executed %s, want Horizontal", res.Executed)
	}
	tl := res.Timeline

	// Every row is one front of cols cells.
	fronts := map[int]bool{}
	for _, r := range tl.Records {
		if r.Kind == hetsim.OpCompute {
			fronts[r.Front] = true
		}
	}
	if len(fronts) != rows {
		t.Errorf("compute ops span %d fronts, want %d", len(fronts), rows)
	}
	if cells := tl.CellsOn(hetsim.ResCPU) + tl.CellsOn(hetsim.ResGPU); cells != rows*cols {
		t.Errorf("compute ops cover %d cells, want %d", cells, rows*cols)
	}

	// The horizontal strategy is single-phase (Table II row "horizontal"):
	// exactly one compute phase label ("p1").
	if ph := tl.Phases(); len(ph) != 1 {
		t.Errorf("phases = %+v, want exactly one", ph)
	}

	// Two-way boundary exchange: one H2D and one D2H cell per row.
	bH2D, bD2H, kH2D, kD2H := timelineTransfers(tl)
	if bH2D.count != rows || bH2D.cells != rows {
		t.Errorf("boundary h2d = %+v, want %d single-cell transfers", bH2D, rows)
	}
	if bD2H.count != rows || bD2H.cells != rows {
		t.Errorf("boundary d2h = %+v, want %d single-cell transfers", bD2H, rows)
	}
	if wantBytes := rows * 8; bH2D.bytes != wantBytes || bD2H.bytes != wantBytes {
		t.Errorf("boundary bytes h2d=%d d2h=%d, want %d each", bH2D.bytes, bD2H.bytes, wantBytes)
	}
	// One bulk result extraction of the GPU's final-row share; no input
	// upload (InputBytes is zero).
	if kH2D.count != 0 {
		t.Errorf("bulk h2d = %+v, want none", kH2D)
	}
	if wantBytes := (cols - tShare) * 8; kD2H.count != 1 || kD2H.bytes != wantBytes {
		t.Errorf("bulk d2h = %+v, want one transfer of %d bytes", kD2H, wantBytes)
	}
}

// TestMetricsPhaseCountsMatchTableII checks the phase structure of the
// simulated schedule matches the paper's Table-II strategies: three
// phases for anti-diagonal and knight-move, two for inverted-L, one for
// horizontal.
func TestMetricsPhaseCountsMatchTableII(t *testing.T) {
	cases := []struct {
		name   string
		mask   lddp.DepMask
		phases int
		opts   []lddp.Option
	}{
		{"anti-diagonal", lddp.DepW | lddp.DepN, 3, nil},
		{"horizontal", lddp.DepNW | lddp.DepN, 1, nil},
		{"knight-move", lddp.DepW | lddp.DepNE, 3, nil},
		{"inverted-l", lddp.DepNW, 2, []lddp.Option{lddp.WithPreferInvertedL()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]lddp.Option{
				lddp.WithStrategy(lddp.Hetero),
				lddp.WithTSwitch(8), lddp.WithTShare(4),
			}, tc.opts...)
			res, err := lddp.Solve(context.Background(), testProblem(tc.mask, 64, 64), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ph := res.Timeline.Phases(); len(ph) != tc.phases {
				names := make([]string, 0, len(ph))
				for _, p := range ph {
					names = append(names, p.Name)
				}
				t.Errorf("phases %v, want %d", names, tc.phases)
			}
		})
	}
}

// TestMetricsWorkerStats checks a traced native solve reports one lane
// per worker, with utilization in [0, 1] and tile cells that cover the
// table exactly once.
func TestMetricsWorkerStats(t *testing.T) {
	const rows, cols, workers = 256, 1024, 4
	tr := lddp.NewTracer()
	_, err := lddp.Solve(context.Background(), testProblem(lddp.DepW|lddp.DepN, rows, cols),
		lddp.WithWorkers(workers), lddp.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	lanes := lddp.AnalyzeTrace(tr, 0).Workers
	if len(lanes) != workers {
		t.Fatalf("trace has %d worker lanes, want %d", len(lanes), workers)
	}
	var cells int64
	for _, w := range lanes {
		cells += w.Cells
		if w.Util < 0 || w.Util > 1 {
			t.Errorf("worker %d utilization %f out of [0,1]", w.Worker, w.Util)
		}
	}
	if cells != rows*cols {
		t.Errorf("workers computed %d cells, want exactly %d", cells, rows*cols)
	}
}

// TestMetricsJSONRoundTrip checks a scheduler's metrics view marshals to
// JSON with the documented field names, and without the per-solve keys a
// scheduler never filled.
func TestMetricsJSONRoundTrip(t *testing.T) {
	s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := lddp.SolveOn(context.Background(), s, testProblem(lddp.DepW|lddp.DepN, 32, 32)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(lddp.NewMetrics(s))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"solves", "errors", "sched"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("marshaled metrics missing %q: %s", key, data)
		}
	}
	for _, key := range []string{"solver", "phases", "front_sizes", "worker_stats", "transfers", "fronts"} {
		if _, ok := doc[key]; ok {
			t.Errorf("marshaled metrics still carries per-solve key %q: %s", key, data)
		}
	}
	sched, _ := doc["sched"].(map[string]any)
	for _, key := range []string{"submitted", "started", "done", "queue_wait_ns", "max_queue_wait_ns", "queue_wait", "solve_latency"} {
		if _, ok := sched[key]; !ok {
			t.Errorf("sched section missing %q: %s", key, data)
		}
	}
}
