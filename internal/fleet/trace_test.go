// Fleet trace stitching end to end: traced node servers return each
// block's trace in its band response, a traced coordinator stitches them
// into one multi-node timeline before Solve returns, and the fleet
// analyzer finds the node lanes, halo spans, and a critical path in it.
package fleet_test

import (
	"cmp"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/lddp/api"
	"repro/lddp/client"
)

// newTracedFleet is newTestFleet with per-node -tracedir wiring: every
// node records block traces and returns them in its band responses, and
// the coordinator stitches them.
func newTracedFleet(t *testing.T, n int, cfg fleet.Config, copts ...client.Option) *testFleet {
	return bootFleet(t, n, true, cfg, copts...)
}

// readStitched parses a fleet solve's stitched trace file.
func readStitched(t *testing.T, res *fleet.Result) *trace.FleetDoc {
	t.Helper()
	fh, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	doc, err := trace.ReadFleetChrome(fh)
	if err != nil {
		t.Fatalf("stitched timeline does not parse: %v", err)
	}
	return doc
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
	doc := readStitched(t, res)
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
	doc := readStitched(t, res)
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

// sortedEvents returns events in one total order, so two copies of a
// trace compare equal whatever order their timestamp ties took.
func sortedEvents(events []trace.Event) []trace.Event {
	out := slices.Clone(events)
	slices.SortFunc(out, func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Worker, b.Worker),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Front, b.Front),
			cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.Dur, b.Dur),
			strings.Compare(a.Label, b.Label))
	})
	return out
}

// nodeFileEvents reads back the trace files one node wrote under dir for
// the blocks of fleet solve fleetID, their events rebased onto the
// clock of the stitched document whose epoch is base.
func nodeFileEvents(t *testing.T, dir, fleetID string, base int64) []trace.Event {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "solve-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for _, path := range paths {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		meta, events, err := trace.ReadChrome(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if meta.FleetID != fleetID {
			continue
		}
		for _, e := range events {
			e.TS += meta.EpochUnixNS - base
			out = append(out, e)
		}
	}
	return out
}

// TestFleetTracePushed is the push path end to end: a traced 2-node
// solve's stitched file is on disk when Solve returns, without Close;
// both nodes have lanes; no node receives a GET; and each node lane
// holds exactly the events the node's own trace files record for the
// solve's blocks, so the band responses carry what the node wrote.
// Leak-checked: a traced solve leaves no goroutine behind.
func TestFleetTracePushed(t *testing.T) {
	checkLeaks(t)
	const nodes = 2
	f := newTracedFleet(t, nodes, fleet.Config{TraceDir: t.TempDir(), PhaseCols: 16})
	res, err := f.coord.Solve(context.Background(), &api.SolveRequest{
		Rows: 40, Cols: 48, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(res.TracePath); err != nil {
		t.Fatalf("stitched trace not on disk when Solve returned: %v", err)
	}
	if n := f.gets.Load(); n != 0 {
		t.Errorf("nodes received %d GET requests during a traced solve, want 0", n)
	}
	doc := readStitched(t, res)
	if len(doc.Procs) != nodes+1 {
		t.Fatalf("stitched doc has %d procs, want %d", len(doc.Procs), nodes+1)
	}
	for n := 0; n < nodes; n++ {
		p := doc.Procs[n+1]
		if p.PID != n+1 || len(p.Events) == 0 {
			t.Errorf("node %d: proc PID %d with %d events, want PID %d with events", n, p.PID, len(p.Events), n+1)
			continue
		}
		want := nodeFileEvents(t, f.traceDirs[n], res.FleetID, doc.Meta.EpochUnixNS)
		if !slices.Equal(sortedEvents(p.Events), sortedEvents(want)) {
			t.Errorf("node %d: stitched lane holds %d events, its trace files %d, and they differ", n, len(p.Events), len(want))
		}
	}
}

// TestFleetTraceKilledNode: a node killed after its first block still
// has that block in the stitched trace, and the solve's trace is written
// although its blocks moved to the surviving node. The victim's later,
// failed attempts returned no response, so they add nothing.
func TestFleetTraceKilledNode(t *testing.T) {
	const victim = 1
	var once sync.Once
	var f *testFleet // assigned below; the hook closure reads it at run time
	f = newTracedFleet(t, 2,
		fleet.Config{
			TraceDir: t.TempDir(), PhaseCols: 8,
			OnBlockDone: func(band, phase, node int) {
				if node == victim {
					once.Do(func() {
						f.servers[victim].CloseClientConnections()
						f.servers[victim].Close()
					})
				}
			},
		},
		client.WithRetry(client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}),
	)
	res, err := f.coord.Solve(context.Background(), &api.SolveRequest{
		Rows: 32, Cols: 40, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 13},
	})
	if err != nil {
		t.Fatalf("fleet solve with killed node: %v", err)
	}
	if res.Stats.Relocations == 0 || res.Stats.NodeBlocks[victim] == 0 {
		t.Fatalf("relocations %d, node blocks %v: the kill did not land after the victim's first block",
			res.Stats.Relocations, res.Stats.NodeBlocks)
	}
	doc := readStitched(t, res)
	for n, blocks := range res.Stats.NodeBlocks {
		if events := len(doc.Procs[n+1].Events); blocks > 0 && events == 0 {
			t.Errorf("node %d completed %d blocks but its lane has no events", n, blocks)
		}
	}
	// The victim's lane holds the blocks it completed and nothing else.
	var solves int
	for _, e := range doc.Procs[victim+1].Events {
		if e.Kind == trace.KindSolve {
			solves++
		}
	}
	if solves != res.Stats.NodeBlocks[victim] {
		t.Errorf("victim lane holds %d block solves, it completed %d blocks", solves, res.Stats.NodeBlocks[victim])
	}
	if rep := trace.AnalyzeFleet(doc); rep.Blocks != res.Stats.Blocks {
		t.Errorf("stitched trace shows %d block round trips, the plan ran %d", rep.Blocks, res.Stats.Blocks)
	}
}
