// Fleet failure-path pins: relocation must exhaust into a typed error
// within its attempt bound — never a hang — when every node is gone.
package fleet_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/lddp/api"
	"repro/lddp/client"
)

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
