package hetsim

import (
	"testing"
	"time"
)

func buildTimeline(t *testing.T) Timeline {
	t.Helper()
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Kind: OpCompute, Duration: 10 * time.Microsecond, Cells: 100})
	s.Submit(Op{Resource: ResGPU, Kind: OpCompute, Duration: 20 * time.Microsecond, Cells: 900}, a)
	s.Submit(Op{Resource: ResCopyH2D, Kind: OpTransfer, Duration: 2 * time.Microsecond, Bytes: 64}, a)
	s.Submit(Op{Resource: ResCopyD2H, Kind: OpTransfer, Duration: 3 * time.Microsecond, Bytes: 128})
	return s.Timeline()
}

func TestTimelineMakespan(t *testing.T) {
	tl := buildTimeline(t)
	if got, want := tl.Makespan(), 30*time.Microsecond; got != want {
		t.Errorf("Makespan = %v, want %v", got, want)
	}
}

func TestTimelineBusyTime(t *testing.T) {
	tl := buildTimeline(t)
	if got, want := tl.BusyTime(ResCPU), 10*time.Microsecond; got != want {
		t.Errorf("BusyTime(cpu) = %v, want %v", got, want)
	}
	if got, want := tl.BusyTime(ResGPU), 20*time.Microsecond; got != want {
		t.Errorf("BusyTime(gpu) = %v, want %v", got, want)
	}
}

func TestTimelineCellsAndBytes(t *testing.T) {
	tl := buildTimeline(t)
	if got := tl.CellsOn(ResCPU); got != 100 {
		t.Errorf("CellsOn(cpu) = %d, want 100", got)
	}
	if got := tl.CellsOn(ResGPU); got != 900 {
		t.Errorf("CellsOn(gpu) = %d, want 900", got)
	}
	if got := tl.BytesTransferred(); got != 192 {
		t.Errorf("BytesTransferred = %d, want 192", got)
	}
	if got := tl.TransferCount(); got != 2 {
		t.Errorf("TransferCount = %d, want 2", got)
	}
}

func TestTimelineResourcesSorted(t *testing.T) {
	tl := buildTimeline(t)
	rs := tl.Resources()
	if len(rs) != 4 {
		t.Fatalf("Resources() = %v, want 4 resources", rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Errorf("Resources() not sorted: %v", rs)
		}
	}
}

func TestTimelineSummarize(t *testing.T) {
	tl := buildTimeline(t)
	st := tl.Summarize()
	if st.Makespan != 30*time.Microsecond {
		t.Errorf("Stats.Makespan = %v", st.Makespan)
	}
	if st.CPUCells != 100 || st.GPUCells != 900 {
		t.Errorf("Stats cells = %d/%d, want 100/900", st.CPUCells, st.GPUCells)
	}
	if st.Transfers != 2 || st.BytesMoved != 192 {
		t.Errorf("Stats transfers = %d/%d bytes", st.Transfers, st.BytesMoved)
	}
	if st.OverlapRatio <= 1.0 {
		t.Errorf("OverlapRatio = %v, want > 1 (overlapped execution)", st.OverlapRatio)
	}
	var empty Timeline
	es := empty.Summarize()
	if es.Makespan != 0 || es.OverlapRatio != 0 {
		t.Errorf("empty Summarize = %+v", es)
	}
}

func TestOpRecordDuration(t *testing.T) {
	r := OpRecord{Start: 5, End: 12}
	if r.Duration() != 7 {
		t.Errorf("Duration = %v, want 7", r.Duration())
	}
}

// records builds a timeline straight from records; Phases only reads
// Label, Kind, Start and End.
func records(rs ...OpRecord) Timeline { return Timeline{Records: rs} }

func rec(label string, kind OpKind, start, end time.Duration) OpRecord {
	return OpRecord{Label: label, Kind: kind, Start: start, End: end}
}

func phaseNames(ps []PhaseSpan) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

func TestTimelinePhasesMergesDevices(t *testing.T) {
	// One phase split across two devices: the phase wall is the span from
	// the earliest start to the latest end, not the sum of op durations.
	ps := records(
		rec("cpu:p1", OpCompute, 0, 10*time.Microsecond),
		rec("gpu:p1", OpCompute, 5*time.Microsecond, 20*time.Microsecond),
	).Phases()
	if len(ps) != 1 || ps[0].Name != "p1" {
		t.Fatalf("phases = %v, want [p1]", phaseNames(ps))
	}
	if ps[0].Wall != 20*time.Microsecond {
		t.Errorf("p1 wall = %v, want 20us (merged span, not summed durations)", ps[0].Wall)
	}
}

func TestTimelinePhasesStripsDevicePrefix(t *testing.T) {
	ps := records(
		rec("k20:p2", OpCompute, 0, time.Microsecond),
		rec("bare", OpCompute, time.Microsecond, 2*time.Microsecond),
	).Phases()
	if len(ps) != 2 || ps[0].Name != "p2" || ps[1].Name != "bare" {
		t.Fatalf("phases = %v, want [p2 bare] (prefix stripped, colon-less label kept)", phaseNames(ps))
	}
}

func TestTimelinePhasesFirstSeenOrder(t *testing.T) {
	// Phases report in first-op order even when later ops interleave.
	ps := records(
		rec("cpu:p1", OpCompute, time.Microsecond, 2*time.Microsecond),
		rec("cpu:p2", OpCompute, 2*time.Microsecond, 3*time.Microsecond),
		rec("gpu:p1", OpCompute, 0, 4*time.Microsecond),
		rec("cpu:p3", OpCompute, 4*time.Microsecond, 5*time.Microsecond),
	).Phases()
	want := []string{"p1", "p2", "p3"}
	if got := phaseNames(ps); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("phases = %v, want %v", got, want)
	}
	// p1's span grew at both ends to cover the late gpu op, which also
	// started before the first one.
	if ps[0].Wall != 4*time.Microsecond {
		t.Errorf("p1 wall = %v, want 4us", ps[0].Wall)
	}
}

func TestTimelinePhasesIgnoresTransfers(t *testing.T) {
	ps := records(
		rec("h2d:input", OpTransfer, 0, time.Microsecond),
		rec("cpu:p1", OpCompute, 0, time.Microsecond),
		rec("d2h:result", OpTransfer, time.Microsecond, 2*time.Microsecond),
	).Phases()
	if len(ps) != 1 || ps[0].Name != "p1" {
		t.Fatalf("phases = %v, want [p1] (transfers excluded)", phaseNames(ps))
	}
}
