package core

import (
	"testing"
	"time"

	"repro/internal/hetsim"
)

// phaseSink records Phase events and ignores the rest of the Collector
// contract.
type phaseSink struct {
	names []string
	walls []time.Duration
}

func (p *phaseSink) SolveStart(SolveInfo)    {}
func (p *phaseSink) FrontSize(int)           {}
func (p *phaseSink) WorkerStats(WorkerStats) {}
func (p *phaseSink) Transfer(TransferStats)  {}
func (p *phaseSink) SolveEnd(error)          {}
func (p *phaseSink) Phase(name string, w time.Duration) {
	p.names = append(p.names, name)
	p.walls = append(p.walls, w)
}

// tl builds a timeline straight from records; emitTimelinePhases only
// reads Label, Kind, Start and End.
func tl(records ...hetsim.OpRecord) hetsim.Timeline {
	return hetsim.Timeline{Records: records}
}

func rec(label string, kind hetsim.OpKind, start, end time.Duration) hetsim.OpRecord {
	return hetsim.OpRecord{Label: label, Kind: kind, Start: start, End: end}
}

func TestEmitTimelinePhasesMergesDevices(t *testing.T) {
	// One phase split across two devices: the phase wall is the span from
	// the earliest start to the latest end, not the sum of op durations.
	sink := &phaseSink{}
	emitTimelinePhases(sink, tl(
		rec("cpu:p1", hetsim.OpCompute, 0, 10*time.Microsecond),
		rec("gpu:p1", hetsim.OpCompute, 5*time.Microsecond, 20*time.Microsecond),
	))
	if len(sink.names) != 1 || sink.names[0] != "p1" {
		t.Fatalf("phases = %v, want [p1]", sink.names)
	}
	if sink.walls[0] != 20*time.Microsecond {
		t.Errorf("p1 wall = %v, want 20us (merged span, not summed durations)", sink.walls[0])
	}
}

func TestEmitTimelinePhasesStripsDevicePrefix(t *testing.T) {
	sink := &phaseSink{}
	emitTimelinePhases(sink, tl(
		rec("k20:p2", hetsim.OpCompute, 0, time.Microsecond),
		rec("bare", hetsim.OpCompute, time.Microsecond, 2*time.Microsecond),
	))
	if len(sink.names) != 2 || sink.names[0] != "p2" || sink.names[1] != "bare" {
		t.Fatalf("phases = %v, want [p2 bare] (prefix stripped, colon-less label kept)", sink.names)
	}
}

func TestEmitTimelinePhasesFirstSeenOrder(t *testing.T) {
	// Phases report in first-op order even when later ops interleave.
	sink := &phaseSink{}
	emitTimelinePhases(sink, tl(
		rec("cpu:p1", hetsim.OpCompute, 0, time.Microsecond),
		rec("cpu:p2", hetsim.OpCompute, time.Microsecond, 2*time.Microsecond),
		rec("gpu:p1", hetsim.OpCompute, 2*time.Microsecond, 3*time.Microsecond),
		rec("cpu:p3", hetsim.OpCompute, 3*time.Microsecond, 4*time.Microsecond),
	))
	want := []string{"p1", "p2", "p3"}
	if len(sink.names) != len(want) {
		t.Fatalf("phases = %v, want %v", sink.names, want)
	}
	for i := range want {
		if sink.names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", sink.names, want)
		}
	}
	// p1's wall grew to cover the late gpu op.
	if sink.walls[0] != 3*time.Microsecond {
		t.Errorf("p1 wall = %v, want 3us", sink.walls[0])
	}
}

func TestEmitTimelinePhasesIgnoresTransfers(t *testing.T) {
	sink := &phaseSink{}
	emitTimelinePhases(sink, tl(
		rec("h2d:input", hetsim.OpTransfer, 0, time.Microsecond),
		rec("cpu:p1", hetsim.OpCompute, 0, time.Microsecond),
		rec("d2h:result", hetsim.OpTransfer, time.Microsecond, 2*time.Microsecond),
	))
	if len(sink.names) != 1 || sink.names[0] != "p1" {
		t.Fatalf("phases = %v, want [p1] (transfers excluded)", sink.names)
	}
}
