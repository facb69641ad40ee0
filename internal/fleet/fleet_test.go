// Fleet differential suite: several full lddpd handler stacks run
// in-process behind httptest, the coordinator shards solves across
// them, and every assembled table must match the sequential oracle of
// the identical instance cell for cell and digest for digest — the
// fleet-level extension of the wire-boundary e2e suite in
// internal/server/e2e_test.go.
package fleet_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/testutil"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// fleetShapes are the adversarial table shapes: degenerate rows and
// columns (fewer rows than nodes force band clamping), extreme aspect
// ratios, primes, and a square control.
var fleetShapes = [][2]int{
	{1, 1},
	{1, 33},
	{33, 1},
	{2, 40},
	{101, 3},
	{31, 37},
	{40, 40},
}

// testFleet boots n full service stacks and a coordinator over them.
type testFleet struct {
	servers []*httptest.Server
	coord   *fleet.Coordinator
	// traceDirs[n] is node n's TraceDir (traced fleets only), and gets
	// counts the GET requests the nodes received.
	traceDirs []string
	gets      atomic.Int64
}

// newTestFleet boots n nodes behind a coordinator whose node clients
// speak the binary codec unless copts say otherwise.
func newTestFleet(t *testing.T, n int, cfg fleet.Config, copts ...client.Option) *testFleet {
	return bootFleet(t, n, false, cfg, copts...)
}

// bootFleet is newTestFleet whose nodes, when traced, each record their
// solves' traces into a TraceDir of their own.
func bootFleet(t *testing.T, n int, traced bool, cfg fleet.Config, copts ...client.Option) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		scfg := server.Config{Workers: 2}
		if traced {
			scfg.TraceDir = t.TempDir()
			f.traceDirs = append(f.traceDirs, scfg.TraceDir)
		}
		srv, err := server.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				f.gets.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); srv.Close() })
		f.servers = append(f.servers, ts)
		// Binary unless copts pick the codec.
		c, err := client.New(ts.URL, append([]client.Option{client.WithCodec(client.CodecBinary)}, copts...)...)
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

// checkFleetDifferential solves one instance through the fleet and
// demands exact equality against the sequential oracle.
func checkFleetDifferential(t *testing.T, coord *fleet.Coordinator, req *api.SolveRequest, m lddp.DepMask) *fleet.Result {
	t.Helper()
	res, err := coord.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("fleet solve: mask=%s shape=%dx%d: %v", m, req.Rows, req.Cols, err)
	}
	problem, err := server.BuildProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Solve(problem)
	if err != nil {
		t.Fatalf("oracle: mask=%s shape=%dx%d: %v", m, req.Rows, req.Cols, err)
	}
	if want := server.DigestCells(req.Rows, req.Cols, res.Cells); res.Digest != want {
		t.Fatalf("mask=%s shape=%dx%d: result digest %s does not match its own cells %s",
			m, req.Rows, req.Cols, res.Digest, want)
	}
	if want := server.DigestGrid(oracle); res.Digest != want {
		t.Errorf("digest: mask=%s shape=%dx%d: fleet %s, oracle %s", m, req.Rows, req.Cols, res.Digest, want)
	}
	for i := 0; i < req.Rows; i++ {
		for j := 0; j < req.Cols; j++ {
			if resultAt(res, i, j) != oracle.At(i, j) {
				t.Fatalf("mask=%s shape=%dx%d: cell (%d,%d): fleet %d, oracle %d",
					m, req.Rows, req.Cols, i, j, resultAt(res, i, j), oracle.At(i, j))
			}
		}
	}
	return res
}

// resultAt reads cell (i, j) of an assembled fleet table.
func resultAt(r *fleet.Result, i, j int) int64 { return r.Cells[i*r.Cols+j] }

// TestFleetDifferentialAllMasks is the full fleet matrix: 2- and 3-node
// fleets x both codecs x all 15 dependency masks x the adversarial
// shapes, with a deliberately tiny phase width so even small tables run
// many phases (halo hand-off on every boundary). Binary blocks decode
// straight into the assembled table, JSON ones are copied there. Every
// mask exercises the cut its contributing set forces (TestPlanCuts).
func TestFleetDifferentialAllMasks(t *testing.T) {
	for _, fc := range []struct {
		nodes int
		codec client.Codec
	}{{2, client.CodecBinary}, {3, client.CodecBinary}, {2, client.CodecJSON}, {3, client.CodecJSON}} {
		f := newTestFleet(t, fc.nodes, fleet.Config{PhaseCols: 7}, client.WithCodec(fc.codec))
		for _, m := range lddp.AllDepMasks() {
			for _, d := range fleetShapes {
				req := &api.SolveRequest{
					Rows: d[0], Cols: d[1], Mask: m.String(),
					Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 0x5eed_f1ee7},
				}
				res := checkFleetDifferential(t, f.coord, req, m)
				if res.Stats.Blocks != res.Stats.Bands*res.Stats.Phases {
					t.Errorf("mask=%s: stats blocks %d != %d bands * %d phases",
						m, res.Stats.Blocks, res.Stats.Bands, res.Stats.Phases)
				}
			}
		}
	}
}

// TestFleetWorkloadKinds runs the other seed-generated workload kinds
// (serve, cost, align) through a 3-node fleet. Cost generates each
// block's own rows of the seeded grid on its node; align fixes its own
// mask.
func TestFleetWorkloadKinds(t *testing.T) {
	f := newTestFleet(t, 3, fleet.Config{PhaseCols: 11})
	for _, kind := range []string{api.KindServe, api.KindCost, api.KindAlign} {
		mask := api.DefaultMask
		if kind == api.KindAlign {
			mask = api.AlignMask
		}
		req := &api.SolveRequest{
			Rows: 37, Cols: 29,
			Workload: api.WorkloadSpec{Kind: kind, Seed: 99},
		}
		checkFleetDifferential(t, f.coord, req, mask)
	}
}

// TestFleetSpreadsWork asserts the plan actually shards: on a 3-node
// fleet with three bands every node executes blocks.
func TestFleetSpreadsWork(t *testing.T) {
	f := newTestFleet(t, 3, fleet.Config{PhaseCols: 10})
	req := &api.SolveRequest{
		Rows: 60, Cols: 50, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 5},
	}
	res := checkFleetDifferential(t, f.coord, req, api.DefaultMask)
	if res.Stats.Bands != 3 || res.Stats.Phases != 5 {
		t.Fatalf("plan = %d bands x %d phases, want 3 x 5", res.Stats.Bands, res.Stats.Phases)
	}
	for n, blocks := range res.Stats.NodeBlocks {
		if blocks != 5 {
			t.Errorf("node %d ran %d blocks, want 5 (no failures injected)", n, blocks)
		}
	}
	if res.Stats.Relocations != 0 {
		t.Errorf("relocations = %d, want 0", res.Stats.Relocations)
	}
}

// TestFleetKillNodeMidSolve is the recovery differential: a 3-node
// fleet starts a solve, and the moment the victim node completes its
// first block its HTTP listener is torn down. The coordinator must
// relocate the victim's remaining blocks to surviving nodes and still
// assemble a table digest-identical to the sequential oracle.
func TestFleetKillNodeMidSolve(t *testing.T) {
	const victim = 1
	var once sync.Once
	var f *testFleet // assigned below; the hook closure reads it at run time
	f = newTestFleet(t, 3,
		fleet.Config{
			PhaseCols: 9,
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
	req := &api.SolveRequest{
		Rows: 45, Cols: 36, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 0xdead},
	}
	res, err := f.coord.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("fleet solve with killed node: %v", err)
	}
	if res.Stats.Relocations == 0 {
		t.Fatalf("no relocations recorded; the kill did not bite (node blocks: %v)", res.Stats.NodeBlocks)
	}
	problem, err := server.BuildProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Solve(problem)
	if err != nil {
		t.Fatal(err)
	}
	if want := server.DigestGrid(oracle); res.Digest != want {
		t.Fatalf("digest after recovery: fleet %s, oracle %s", res.Digest, want)
	}
}

// TestFleetFatalErrorAborts pins the non-relocatable path: an invalid
// request must fail the solve without burning relocation attempts.
// Leak-checked: no engine worker, nor Solve's table allocation and
// digest fold, outlives a failed Solve.
func TestFleetFatalErrorAborts(t *testing.T) {
	checkLeaks(t)
	f := newTestFleet(t, 2, fleet.Config{})
	req := &api.SolveRequest{
		Rows: 10, Cols: 10, Mask: "W,N",
		Workload: api.WorkloadSpec{Kind: "bogus"},
	}
	if _, err := f.coord.Solve(context.Background(), req); err == nil {
		t.Fatal("bogus workload kind solved")
	}
	// A kind the plan accepts but the nodes refuse: inline cells are
	// caught coordinator-side too, so use a strategy typo, which only
	// the node validates.
	req = &api.SolveRequest{
		Rows: 10, Cols: 10, Mask: "W,N", Strategy: "bogus",
		Workload: api.WorkloadSpec{Kind: api.KindMix},
	}
	_, err := f.coord.Solve(context.Background(), req)
	if err == nil {
		t.Fatal("bogus strategy solved")
	}
	if !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", err)
	}
}

// checkLeaks fails t if goroutines outlive it: the check runs after
// every cleanup registered later, so the fleet's nodes and clients are
// torn down first.
func checkLeaks(t *testing.T) {
	leak := testutil.StartLeakCheck()
	t.Cleanup(func() {
		if err := leak.Err(2 * time.Second); err != nil {
			t.Error(err)
		}
	})
}
