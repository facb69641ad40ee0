// Fleet trace stitching end to end: traced node servers plus a traced
// coordinator produce one stitched multi-node timeline, and the fleet
// analyzer finds the node lanes, halo spans, and a critical path in it.
package fleet_test

import (
	"context"
	"os"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/lddp/api"
	"repro/lddp/client"

	"net/http/httptest"
)

// newTracedFleet is newTestFleet with per-node -tracedir wiring: every
// node records block traces, and the coordinator stitches them.
func newTracedFleet(t *testing.T, n int, cfg fleet.Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Workers: 2, TraceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		f.servers = append(f.servers, ts)
		c, err := client.New(ts.URL, client.WithCodec(client.CodecBinary))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		cfg.Nodes = append(cfg.Nodes, c)
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	return f
}

func TestFleetTraceStitching(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	f := newTracedFleet(t, nodes, fleet.Config{TraceDir: dir})

	res, err := f.coord.Solve(context.Background(), &api.SolveRequest{
		Rows: 40, Cols: 40, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetID == "" {
		t.Fatal("fleet solve without a FleetID")
	}
	if res.TracePath == "" {
		t.Fatal("traced coordinator produced no stitched TracePath")
	}
	// Stitching is detached from Solve; Close synchronizes with the
	// write before the file is read.
	f.coord.Close()

	fh, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	doc, err := trace.ReadFleetChrome(fh)
	if err != nil {
		t.Fatalf("stitched timeline does not parse: %v", err)
	}
	if !trace.IsFleetDoc(doc.Meta) {
		t.Fatalf("stitched doc meta carries no fleet_id: %+v", doc.Meta)
	}
	if doc.Meta.FleetID != res.FleetID {
		t.Errorf("doc fleet_id = %q, want %q", doc.Meta.FleetID, res.FleetID)
	}

	// One coordinator process plus one lane per node, PIDs aligned with
	// the node index order.
	if len(doc.Procs) != nodes+1 {
		t.Fatalf("stitched doc has %d procs, want %d", len(doc.Procs), nodes+1)
	}
	if doc.Procs[0].PID != 0 {
		t.Errorf("first proc PID = %d, want 0 (coordinator)", doc.Procs[0].PID)
	}
	for i := 1; i <= nodes; i++ {
		if doc.Procs[i].PID != i {
			t.Errorf("proc %d PID = %d, want %d", i, doc.Procs[i].PID, i)
		}
		if len(doc.Procs[i].Events) == 0 {
			t.Errorf("node proc %d (%s) has no events — node trace not collected", i, doc.Procs[i].Name)
		}
	}

	// The coordinator lane must carry rtt spans for every block and the
	// derived halo-transfer spans for cross-band handoffs.
	var rtts, halos int
	for _, e := range doc.Procs[0].Events {
		switch e.Label {
		case trace.LabelRTT:
			rtts++
		case trace.LabelHaloXfer:
			halos++
		}
	}
	if rtts == 0 {
		t.Error("coordinator lane has no rtt spans")
	}
	if halos == 0 {
		t.Error("coordinator lane has no halo transfer spans")
	}

	rep := trace.AnalyzeFleet(doc)
	if rep.Blocks != rtts {
		t.Errorf("report blocks = %d, coordinator rtt spans = %d", rep.Blocks, rtts)
	}
	if rep.Bands != nodes {
		t.Errorf("report bands = %d, want %d", rep.Bands, nodes)
	}
	if len(rep.Nodes) != nodes+1 {
		t.Errorf("report has %d node lanes, want %d", len(rep.Nodes), nodes+1)
	}
	if rep.RTTNS <= 0 {
		t.Error("report total rtt is zero")
	}
	cr := rep.Critical
	if len(cr.Steps) == 0 {
		t.Fatal("fleet critical path is empty")
	}
	if cr.DominantNode < 0 || cr.DominantNode >= nodes {
		t.Errorf("dominant node = %d, want in [0,%d)", cr.DominantNode, nodes)
	}
	if cr.DominantKind == "" {
		t.Error("critical path has no dominant kind")
	}
	// The path must start at block (0,0) and respect the DAG order.
	first := cr.Steps[0]
	if first.Band != 0 || first.Phase != 0 {
		t.Errorf("critical path starts at band %d phase %d, want (0,0)", first.Band, first.Phase)
	}
	for i := 1; i < len(cr.Steps); i++ {
		p, q := cr.Steps[i-1], cr.Steps[i]
		if !(q.Band == p.Band+1 && q.Phase == p.Phase) && !(q.Band == p.Band && q.Phase == p.Phase+1) {
			t.Errorf("critical path step %d (%d,%d) does not follow (%d,%d)", i, q.Band, q.Phase, p.Band, p.Phase)
		}
	}
}

// TestFleetTraceUntracedNodes pins the degraded mode: the coordinator
// traces but the nodes run without -tracedir, so the stitched doc still
// has every node lane (keeping PID/node-index alignment) — just empty.
func TestFleetTraceUntracedNodes(t *testing.T) {
	dir := t.TempDir()
	f := newTestFleet(t, 2, fleet.Config{TraceDir: dir})
	res, err := f.coord.Solve(context.Background(), &api.SolveRequest{
		Rows: 24, Cols: 24, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePath == "" {
		t.Fatal("no stitched trace written")
	}
	f.coord.Close()
	fh, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	doc, err := trace.ReadFleetChrome(fh)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Procs) != 3 {
		t.Fatalf("procs = %d, want 3 (coordinator + 2 empty node lanes)", len(doc.Procs))
	}
	for _, p := range doc.Procs[1:] {
		if len(p.Events) != 0 {
			t.Errorf("untraced node proc %d unexpectedly has %d events", p.PID, len(p.Events))
		}
	}
	if rep := trace.AnalyzeFleet(doc); rep.Blocks == 0 {
		t.Error("coordinator rtt spans missing from degraded-mode analysis")
	}
}

// TestFleetUntracedCoordinator pins that without a coordinator TraceDir
// no stitched file is written but solves still mint a FleetID for node
// -tracedir tagging.
func TestFleetUntracedCoordinator(t *testing.T) {
	f := newTestFleet(t, 2, fleet.Config{})
	res, err := f.coord.Solve(context.Background(), &api.SolveRequest{
		Rows: 16, Cols: 16, Mask: "W,N",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePath != "" {
		t.Errorf("untraced coordinator wrote %q", res.TracePath)
	}
	if res.FleetID == "" {
		t.Error("fleet solve without a FleetID; node traces cannot be tagged")
	}
}
