package core

import (
	"context"
	"testing"

	"repro/internal/hetsim"
	"repro/internal/trace"
)

func newTestExec(t *testing.T, opts Options) *heteroExec[int64] {
	t.Helper()
	p := testProblem(DepW|DepN, 10, 10)
	w := NewWavefronts(AntiDiagonal, 10, 10)
	opts = opts.withDefaults(w, TransferOneWay)
	return newHeteroExec(context.Background(), p, w, opts)
}

func TestExecCoalescedFlag(t *testing.T) {
	e := newTestExec(t, Options{TSwitch: 0, TShare: 0})
	if !e.coalesced {
		t.Error("pattern-default layout should be coalesced")
	}
	e2 := newTestExec(t, Options{TSwitch: 0, TShare: 0, Uncoalesced: true})
	if e2.coalesced {
		t.Error("row-major layout on an anti-diagonal problem should be uncoalesced")
	}
}

func TestExecEmptyRangesAreNoOps(t *testing.T) {
	e := newTestExec(t, Options{TSwitch: 0, TShare: 0})
	if id := e.cpuOp(0, 3, 3, "x"); id != hetsim.NoOp {
		t.Error("empty CPU range should be NoOp")
	}
	if id := e.gpuOp(0, 5, 2, "x"); id != hetsim.NoOp {
		t.Error("inverted GPU range should be NoOp")
	}
	if id := e.boundary(hetsim.ResCopyH2D, 0, "x"); id != hetsim.NoOp {
		t.Error("zero-cell boundary should be NoOp")
	}
	if id := e.bulk(hetsim.ResCopyD2H, 0, "x"); id != hetsim.NoOp {
		t.Error("zero-byte bulk should be NoOp")
	}
	if n := len(e.sim.Timeline().Records); n != 0 {
		t.Errorf("no-ops submitted %d operations", n)
	}
}

func TestExecUploadInputRespectsInputBytes(t *testing.T) {
	e := newTestExec(t, Options{TSwitch: 0, TShare: 0})
	if id := e.uploadInput(); id != hetsim.NoOp {
		t.Error("zero InputBytes should skip the upload")
	}
	e.p.InputBytes = 1 << 20
	if id := e.uploadInput(); id == hetsim.NoOp {
		t.Error("nonzero InputBytes should upload")
	}
	tl := e.sim.Timeline()
	if tl.BytesTransferred() != 1<<20 {
		t.Errorf("uploaded %d bytes, want %d", tl.BytesTransferred(), 1<<20)
	}
}

func TestExecBoundaryUsesPinnedByDefault(t *testing.T) {
	e := newTestExec(t, Options{TSwitch: 0, TShare: 0})
	e.boundary(hetsim.ResCopyH2D, 1, "b")
	pinnedDur := e.sim.Timeline().Records[0].Duration()

	e2 := newTestExec(t, Options{TSwitch: 0, TShare: 0, UsePageable: true})
	e2.boundary(hetsim.ResCopyH2D, 1, "b")
	pageableDur := e2.sim.Timeline().Records[0].Duration()

	if pinnedDur >= pageableDur {
		t.Errorf("pinned boundary %v should beat pageable %v", pinnedDur, pageableDur)
	}
}

func TestExecDisablePipelineMovesTransfersToGPU(t *testing.T) {
	e := newTestExec(t, Options{TSwitch: 0, TShare: 0, DisablePipeline: true})
	e.boundary(hetsim.ResCopyH2D, 1, "b")
	e.bulk(hetsim.ResCopyD2H, 100, "d")
	for _, r := range e.sim.Timeline().Records {
		if r.Resource != hetsim.ResGPU {
			t.Errorf("transfer %q on %s, want gpu queue", r.Label, r.Resource)
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	w := NewWavefronts(AntiDiagonal, 2048, 2048)
	o := Options{TSwitch: -1, TShare: -1}.withDefaults(w, TransferOneWay)
	if o.Platform == nil || o.Platform.Name != "Hetero-High" {
		t.Error("default platform should be Hetero-High")
	}
	if o.TSwitch < 0 || o.TShare < 0 {
		t.Error("auto parameters not resolved")
	}
	// Explicit values survive.
	o2 := Options{TSwitch: 7, TShare: 9, Uncoalesced: true}.withDefaults(w, TransferOneWay)
	if o2.TSwitch != 7 || o2.TShare != 9 || !o2.Uncoalesced {
		t.Error("explicit options overwritten by defaults")
	}
}

func TestResultStats(t *testing.T) {
	p := testProblem(DepW|DepN, 64, 64)
	res, err := SolveHetero(p, Options{TSwitch: 10, TShare: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Timeline.Summarize()
	if st.Makespan != res.Time {
		t.Errorf("Stats.Makespan %v != Result.Time %v", st.Makespan, res.Time)
	}
	if st.CPUCells+st.GPUCells != 64*64 {
		t.Errorf("stats account for %d cells, want %d", st.CPUCells+st.GPUCells, 64*64)
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
