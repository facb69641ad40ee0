// Fleet failure-path pins: the detached trace stitch must never block a
// solve and must be waitable (Close), and relocation must exhaust into
// a typed error within its attempt bound — never a hang — when every
// node is gone.
package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/lddp/api"
	"repro/lddp/client"
)

// TestFleetStitchDetached is the regression for the PR 8 stitch path:
// trace collection hits every node with a 10s budget, so a node whose
// /v1/trace endpoint hangs must not hold the solve hostage — Solve
// returns as soon as the table is assembled, the stitch runs detached,
// and Close is the only thing that waits for it. Leak-checked: once
// Close returns, the stitch goroutine is fully accounted for.
func TestFleetStitchDetached(t *testing.T) {
	leak := testutil.StartLeakCheck()
	dir := t.TempDir()

	gate := make(chan struct{})
	var servers []*httptest.Server
	var srvs []*server.Server
	var clients []*client.Client
	cfg := fleet.Config{TraceDir: dir}
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Workers: 2, TraceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		handler := srv.Handler()
		if i == 0 {
			// Node 0's trace endpoint parks until the gate opens — the
			// hung-fetch scenario the detachment exists for.
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/trace/") {
					<-gate
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(handler)
		c, err := client.New(ts.URL, client.WithCodec(client.CodecBinary))
		if err != nil {
			t.Fatal(err)
		}
		servers, srvs, clients = append(servers, ts), append(srvs, srv), append(clients, c)
		cfg.Nodes = append(cfg.Nodes, c)
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type solved struct {
		res *fleet.Result
		err error
	}
	got := make(chan solved, 1)
	go func() {
		res, err := coord.Solve(context.Background(), &api.SolveRequest{
			Rows: 24, Cols: 24, Mask: "W,N",
			Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 7},
		})
		got <- solved{res, err}
	}()
	var res *fleet.Result
	select {
	case s := <-got:
		if s.err != nil {
			t.Fatal(s.err)
		}
		res = s.res
	case <-time.After(5 * time.Second):
		t.Fatal("Solve blocked behind a hung node trace fetch — stitch not detached")
	}
	if res.TracePath == "" {
		t.Fatal("traced solve announced no TracePath")
	}

	// Release the hung fetch; Close must now wait for the stitch and
	// leave the announced file complete on disk.
	close(gate)
	coord.Close()
	fh, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatalf("stitched file missing after Close: %v", err)
	}
	doc, err := trace.ReadFleetChrome(fh)
	fh.Close()
	if err != nil {
		t.Fatalf("stitched timeline does not parse: %v", err)
	}
	if doc.Meta.FleetID != res.FleetID {
		t.Errorf("stitched doc fleet_id = %q, want %q", doc.Meta.FleetID, res.FleetID)
	}

	for i := range servers {
		servers[i].Close()
		srvs[i].Close()
		clients[i].Close()
	}
	if err := leak.Err(2 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestFleetRelocationExhaustion pins the all-nodes-dead contract: a
// fleet solve whose every relocation target is gone must return a typed
// exhaustion error naming the per-block attempt bound — within the
// bound, never hanging on a dead fleet — and leave no goroutine behind.
func TestFleetRelocationExhaustion(t *testing.T) {
	cases := []struct {
		name     string
		nodes    int
		attempts int  // MaxBlockAttempts; 0 selects the 2*nodes default
		midSolve bool // kill after the first block instead of before the solve
	}{
		{name: "dead-at-start-2-nodes", nodes: 2},
		{name: "dead-at-start-bounded-attempts", nodes: 3, attempts: 4},
		{name: "dead-mid-solve-2-nodes", nodes: 2, midSolve: true},
		{name: "dead-mid-solve-3-nodes", nodes: 3, midSolve: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks(t)
			var killAll func()
			var once sync.Once
			cfg := fleet.Config{PhaseCols: 5, MaxBlockAttempts: tc.attempts}
			if tc.midSolve {
				cfg.OnBlockDone = func(band, phase, node int) {
					once.Do(func() { killAll() })
				}
			}
			// MaxAttempts 1 keeps each dead-node probe to one connection
			// attempt; the exhaustion bound under test is the
			// coordinator's, not the client's backoff budget.
			f := newTestFleet(t, tc.nodes, cfg, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
			killAll = func() {
				for _, ts := range f.servers {
					ts.CloseClientConnections()
					ts.Close()
				}
			}
			if !tc.midSolve {
				once.Do(func() { killAll() })
			}

			wantAttempts := tc.attempts
			if wantAttempts == 0 {
				wantAttempts = 2 * tc.nodes
			}
			errCh := make(chan error, 1)
			go func() {
				_, err := f.coord.Solve(context.Background(), &api.SolveRequest{
					Rows: 20, Cols: 20, Mask: "W,N",
					Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 11},
				})
				errCh <- err
			}()
			var err error
			select {
			case err = <-errCh:
			case <-time.After(30 * time.Second):
				t.Fatal("fleet solve against a dead fleet hung past the attempt bound")
			}
			if err == nil {
				t.Fatal("fleet solve succeeded with every node dead")
			}
			if want := fmt.Sprintf("block failed on %d nodes", wantAttempts); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the attempt bound %q", err, want)
			}
			if !strings.HasPrefix(err.Error(), "fleet: band ") {
				t.Errorf("error %q is not the typed fleet block failure", err)
			}
		})
	}
}
