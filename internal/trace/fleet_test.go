package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAnalyzeFleetHandBuilt analyzes a stitched document built by hand: a
// 2 x 2 block plan on two coordinator worker lanes, band 0's two blocks
// split over both lanes, block (1,1) relocated from its band's node 1 to
// node 0, and both nodes returning block traces. Each coordinator span
// names its block as band * Meta.Fronts + phase.
func TestAnalyzeFleetHandBuilt(t *testing.T) {
	const epoch = 1_000_000
	meta := Meta{Solver: "fleet", Rows: 8, Cols: 8, Fronts: 2, Workers: 2, FleetID: "f1-1", EpochUnixNS: epoch}
	span := func(w int32, label string, kind Kind, block int32, a, b, ts, dur int64) Event {
		return Event{TS: ts, Dur: dur, A: a, B: b, Front: block, Worker: w, Kind: kind, Label: label}
	}
	wait := func(w, block int32, ts, dur int64) Event {
		return span(w, LabelHaloWait, KindHandoff, block, 0, 0, ts, dur)
	}
	rtt := func(w, block int32, node, ts, dur int64) Event {
		return span(w, LabelRTT, KindPhase, block, node, 16, ts, dur)
	}
	halo := func(w, block int32, values, ts, dur int64) Event {
		return span(w, LabelHaloXfer, KindXferH2D, block, values, 8*values, ts, dur)
	}
	coord := []Event{
		wait(0, 0, 0, 10), rtt(0, 0, 0, 10, 100), halo(0, 0, 4, 10, 20), // (0,0) ends at 110
		wait(1, 1, 0, 115), rtt(1, 1, 0, 115, 100), halo(1, 1, 6, 115, 30), // (0,1) ends at 215
		wait(0, 2, 110, 5), rtt(0, 2, 1, 115, 200), halo(0, 2, 8, 115, 40), // (1,0) ends at 315
		wait(1, 3, 215, 105), rtt(1, 3, 0, 320, 50), halo(1, 3, 10, 320, 10), // (1,1) ends at 370
	}
	block := func(band, phase int, ts int64) BlockTrace {
		return BlockTrace{
			Band: band, Phase: phase,
			Meta:   Meta{Solver: "sched", EpochUnixNS: epoch},
			Events: []Event{{TS: ts, Dur: 40, B: 16, Kind: KindTask}},
		}
	}
	nodes := []NodeTrace{
		{Node: "n0", Blocks: []BlockTrace{block(0, 0, 20), block(0, 1, 130), block(1, 1, 330)}},
		{Node: "n1", Blocks: []BlockTrace{block(1, 0, 150)}},
	}
	var buf bytes.Buffer
	if err := WriteFleetChrome(&buf, meta, coord, nodes); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadFleetChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeFleet(doc)

	if rep.Bands != 2 || rep.Phases != 2 || rep.Blocks != 4 {
		t.Errorf("plan %d x %d, %d blocks; want 2 x 2, 4", rep.Bands, rep.Phases, rep.Blocks)
	}
	if rep.HaloWaitNS != 235 || rep.HaloXferNS != 100 || rep.HaloCells != 28 || rep.HaloBytes != 224 {
		t.Errorf("halo wait %d, xfer %d, %d values, %d bytes; want 235, 100, 28, 224",
			rep.HaloWaitNS, rep.HaloXferNS, rep.HaloCells, rep.HaloBytes)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("%d processes, want the coordinator and 2 nodes", len(rep.Nodes))
	}
	for i, want := range []struct {
		blocks int
		rtt    int64
	}{{0, 0}, {3, 250}, {1, 200}} {
		if n := rep.Nodes[i]; n.PID != i || n.Blocks != want.blocks || n.RTTNS != want.rtt {
			t.Errorf("process %d: PID %d, %d blocks, rtt %d; want %d blocks, rtt %d", i, n.PID, n.Blocks, n.RTTNS, want.blocks, want.rtt)
		}
	}
	// Back from the last round trip, (1,1): its later predecessor is
	// (1,0), not (0,1), and (1,0)'s is (0,0).
	wantSteps := []FleetCriticalStep{
		{Band: 0, Phase: 0, Node: 0, RTTNS: 100},
		{Band: 1, Phase: 0, Node: 1, RTTNS: 200, WaitNS: 5},
		{Band: 1, Phase: 1, Node: 0, RTTNS: 50, WaitNS: 5},
	}
	cr := rep.Critical
	if !reflect.DeepEqual(cr.Steps, wantSteps) {
		t.Errorf("critical path %+v, want %+v", cr.Steps, wantSteps)
	}
	if cr.RTTNS != 350 || cr.WaitNS != 10 || cr.DominantNode != 1 || cr.DominantPhase != 0 || cr.DominantKind != "compute" {
		t.Errorf("critical path totals %+v", cr)
	}
}
