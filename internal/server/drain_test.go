package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/testutil"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// runDrainSoak hammers a full service stack with concurrent submits and
// client-side cancellations, then drains it the way lddpd's SIGTERM path
// does, and checks the drain invariants:
//
//  1. every request ends in {done, timeout, overloaded/unavailable} —
//     never a 5xx or a transport-level failure,
//  2. /readyz flips to 503 while the listener is still open (a load
//     balancer must see the drain before the port dies),
//  3. after drain + close, zero goroutines leak.
//
// The randomness is seeded, so a failure reproduces with the same seed.
func runDrainSoak(t *testing.T, n, maxDim int, seed int64) {
	t.Helper()
	leak := testutil.StartLeakCheck()
	srv, err := server.New(server.Config{
		Workers: 4, Queue: 16, MaxInflight: 8,
		RetryAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	masks := lddp.AllDepMasks()
	var (
		wg                                sync.WaitGroup
		mu                                sync.Mutex
		done, timedOut, rejected, drained int64
		failures                          []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	drainAt := n / 2
	drainedCh := make(chan struct{})
	for k := 0; k < n; k++ {
		if k == drainAt {
			// Mid-batch SIGTERM: readiness must flip while the listener
			// still answers, then the in-flight tail drains below.
			srv.BeginDrain()
			if err := c.Ready(context.Background()); !errors.Is(err, client.ErrUnavailable) {
				t.Errorf("readyz after BeginDrain (listener open) = %v, want ErrUnavailable", err)
			}
			close(drainedCh)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(k)))
			m := masks[rng.Intn(len(masks))]
			req := &api.SolveRequest{
				Rows: 1 + rng.Intn(maxDim), Cols: 1 + rng.Intn(maxDim),
				Mask:     m.String(),
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
			}
			ctx := context.Background()
			var cancel context.CancelFunc
			switch rng.Intn(4) {
			case 0: // tight server-side deadline
				req.DeadlineMS = 1 + int64(rng.Intn(3))
			case 1: // client abandons the request mid-flight
				ctx, cancel = context.WithCancel(ctx)
				delay := time.Duration(rng.Intn(2_000_000))
				go func() { time.Sleep(delay); cancel() }()
			}
			if cancel != nil {
				defer cancel()
			}
			_, err := c.Solve(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				done++
			case errors.Is(err, context.Canceled), errors.Is(err, client.ErrTimeout):
				timedOut++
			case errors.Is(err, client.ErrOverloaded):
				rejected++
			case errors.Is(err, client.ErrUnavailable):
				drained++
			default:
				fail("request %d: unexpected error %T: %v", k, err, err)
			}
		}(k)
	}
	wg.Wait()

	// The tail admitted before the drain must fully leave the handlers
	// within the bound.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Errorf("drain: %v", err)
	}
	<-drainedCh // the readyz flip was asserted before the listener closes
	ts.Close()
	srv.Close()
	c.Close()

	for _, f := range failures {
		t.Error(f)
	}
	if total := done + timedOut + rejected + drained + int64(len(failures)); total != int64(n) {
		t.Errorf("outcomes %d done + %d timeout + %d rejected + %d drained != %d requests",
			done, timedOut, rejected, drained, n)
	}
	if srv.ActiveRequestsForTest() != 0 {
		t.Errorf("drained server reports %d active requests", srv.ActiveRequestsForTest())
	}
	t.Logf("drain soak: %d done, %d timeout, %d rejected, %d drained", done, timedOut, rejected, drained)

	// Workers exited at Close; give stragglers (test-side cancel timers,
	// HTTP conn teardown) a moment before declaring a leak.
	if err := leak.Err(2 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestServerDrainSoak is the short always-on variant (a second or two);
// the long variant runs under -tags soak.
func TestServerDrainSoak(t *testing.T) {
	runDrainSoak(t, 48, 48, 1)
}

// TestDrainBoundExpires pins the bounded-drain contract: a Drain whose
// context ends with requests still in flight reports the failure instead
// of hanging.
func TestDrainBoundExpires(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hold one request in flight past the drain bound: a big solve with
	// a deadline far beyond it.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.Solve(context.Background(), &api.SolveRequest{
			Rows: 2048, Cols: 2048, Mask: "W,N", DeadlineMS: 5000,
		})
		finished <- err
	}()
	<-started
	// Wait until the request is inside the handler.
	for i := 0; i < 1000 && srv.ActiveRequestsForTest() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.ActiveRequestsForTest() == 0 {
		t.Fatal("request never became active")
	}
	// A pre-expired bound: Drain must report the failure immediately
	// rather than waiting out the solve.
	ctx, cancel := context.WithTimeout(context.Background(), -time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Error("drain with an in-flight solve returned nil before the solve finished")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain error = %v, want context.DeadlineExceeded cause", err)
	}
	// The solve itself still completes (or times out server-side).
	if err := <-finished; err != nil && !errors.Is(err, client.ErrTimeout) {
		t.Errorf("held solve ended with %v", err)
	}
	if err := c.Ready(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("readyz after expired drain = %v, want ErrUnavailable (drain is sticky)", err)
	}
}
