package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(Meta{Solver: "async"}, nil, 0)
	if rep.Events != 0 || rep.Critical.Kind != "none" {
		t.Fatalf("empty analysis = %+v", rep)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no events)") {
		t.Errorf("summary of an empty trace: %q", buf.String())
	}
}

func TestAnalyzeUtilization(t *testing.T) {
	// Worker 0 busy for the whole [0, 100] span, worker 1 for half of it.
	events := []Event{
		{TS: 0, Dur: 100, Kind: KindTask, Worker: 0, Front: 0, A: 0, B: 10},
		{TS: 0, Dur: 50, Kind: KindTask, Worker: 1, Front: 0, A: 10, B: 30},
	}
	rep := Analyze(Meta{Workers: 2}, events, 10)
	if len(rep.Workers) != 2 {
		t.Fatalf("lanes = %d, want 2", len(rep.Workers))
	}
	w0, w1 := rep.Workers[0], rep.Workers[1]
	if w0.Util < 0.99 || w0.Cells != 10 || w0.Chunks != 1 {
		t.Errorf("worker 0 = %+v, want full utilization, 10 cells", w0)
	}
	if w1.Util < 0.49 || w1.Util > 0.51 || w1.Cells != 20 {
		t.Errorf("worker 1 = %+v, want ~50%% utilization, 20 cells", w1)
	}
	// Bucketed timeline: worker 1's second half must be idle.
	if rep.Util[1][2] < 0.99 || rep.Util[1][7] > 0.01 {
		t.Errorf("worker 1 timeline = %v, want busy first half, idle second", rep.Util[1])
	}
}

func TestAnalyzeHandoffStall(t *testing.T) {
	// A fleet band's halo waits: two hand-off spans on lane 1 sum into
	// the stall report, and neither counts as busy time.
	events := []Event{
		{TS: 0, Dur: 80, Kind: KindTask, Worker: 0, Front: 0, B: 8},
		{TS: 0, Dur: 20, Kind: KindHandoff, Worker: 1, Front: 0, Label: "halo-wait"},
		{TS: 20, Dur: 60, Kind: KindTask, Worker: 1, Front: 0, B: 8},
		{TS: 80, Dur: 15, Kind: KindHandoff, Worker: 1, Front: 1, Label: "halo-wait"},
	}
	rep := Analyze(Meta{Workers: 2}, events, 0)
	if rep.Stall.HandoffNS != 35 {
		t.Fatalf("stall = %+v, want 35ns of hand-off", rep.Stall)
	}
	if rep.Workers[1].BusyNS != 60 {
		t.Errorf("lane 1 = %+v, want 60ns busy (hand-off waits are idle)", rep.Workers[1])
	}
}

func TestAnalyzeTaskCritical(t *testing.T) {
	// A tile-engine trace: two lanes of task spans (one per tile) and a
	// ready-queue sample. Lane 1 is the busier one, so it bounds the
	// critical path.
	events := []Event{
		{TS: 0, Dur: 10, Kind: KindTask, Worker: 0, Front: 0, B: 256},
		{TS: 10, Dur: 10, Kind: KindTask, Worker: 0, Front: 1, B: 256},
		{TS: 5, Dur: 15, Kind: KindTask, Worker: 1, Front: 0, B: 256},
		{TS: 20, Dur: 15, Kind: KindTask, Worker: 1, Front: 1, B: 256},
		{TS: 35, Dur: 5, Kind: KindTask, Worker: 1, Front: 2, B: 256},
		{TS: 20, Kind: KindReady, Worker: 1, Front: 1, A: 2, B: 3},
	}
	rep := Analyze(Meta{Solver: "async"}, events, 0)
	cr := rep.Critical
	if cr.Kind != "async" {
		t.Fatalf("critical kind = %q, want async", cr.Kind)
	}
	if cr.Steps != 3 || cr.ComputeNS != 35 {
		t.Errorf("critical steps=%d compute=%d, want lane 1's 3 tasks over 35ns", cr.Steps, cr.ComputeNS)
	}
	if rep.Stall.HandoffNS != 0 || rep.Workers[1].Cells != 3*256 {
		t.Errorf("stall = %+v, lane 1 = %+v; want no hand-off and 768 cells", rep.Stall, rep.Workers[1])
	}
	if rep.Queue.Samples != 1 || rep.Queue.PeakDepth != 2 {
		t.Errorf("queue = %+v, want one sample of depth 2", rep.Queue)
	}
}

func TestAnalyzeSerialOnly(t *testing.T) {
	// One lane runs every tile, so the critical path is the whole lane.
	events := []Event{
		{TS: 0, Dur: 10, Kind: KindTask, Worker: 0, Front: 0, B: 4},
		{TS: 10, Dur: 10, Kind: KindTask, Worker: 0, Front: 1, B: 4},
	}
	rep := Analyze(Meta{}, events, 0)
	if cr := rep.Critical; cr.Kind != "async" || cr.Steps != 2 || cr.ComputeNS != 20 {
		t.Fatalf("critical = %+v, want both 10ns tasks of the one lane", cr)
	}
}

func TestSummaryRendersSections(t *testing.T) {
	events := []Event{
		{TS: 0, Dur: 70, Kind: KindTask, Worker: 0, Front: 0, B: 64},
		{TS: 70, Dur: 30, Kind: KindHandoff, Worker: 0, Front: 0},
		{TS: 0, Dur: 100, Kind: KindTask, Worker: 1, Front: 0, B: 64},
	}
	rep := Analyze(Meta{Solver: "async", Problem: "t", Rows: 8, Cols: 16, Workers: 2}, events, 12)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"solver=async", "utilization", "stalls:", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
