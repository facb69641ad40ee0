package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/testutil"
)

// runSoak drives a shared scheduler with n concurrent submissions of
// randomized shapes, masks, deadlines, and cancellations, and checks the
// three invariants the scheduler promises:
//
//  1. every submission ends in exactly one of {done, canceled, rejected},
//  2. a done submission's table matches the sequential oracle exactly,
//  3. closing the scheduler leaks no goroutines.
//
// The randomness is seeded, so a failure reproduces with the same seed.
func runSoak(t *testing.T, n, maxDim int, seed int64) {
	t.Helper()
	leak := testutil.StartLeakCheck()
	s, err := sched.New(sched.Config{Workers: 4, MaxActive: 8, QueueBound: 32})
	if err != nil {
		t.Fatal(err)
	}
	masks := core.AllDepMasks()
	var (
		wg                       sync.WaitGroup
		mu                       sync.Mutex
		done, canceled, rejected int64
		failures                 []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(k)))
			m := masks[rng.Intn(len(masks))]
			rows := 1 + rng.Intn(maxDim)
			cols := 1 + rng.Intn(maxDim)
			p := testProblem(m, rows, cols)
			ctx := context.Background()
			var cancel context.CancelFunc
			switch rng.Intn(4) {
			case 0: // tight deadline: may expire queued, mid-run, or never
				ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3_000_000)))
			case 1: // explicit cancel racing the solve
				ctx, cancel = context.WithCancel(ctx)
				delay := time.Duration(rng.Intn(2_000_000))
				go func() { time.Sleep(delay); cancel() }()
			}
			if cancel != nil {
				defer cancel()
			}
			g, err := sched.Solve(ctx, s, p, sched.SubmitOptions{})
			var rej *sched.Rejected
			var can *core.Canceled
			switch {
			case err == nil:
				if g == nil {
					fail("submission %d: done with nil grid", k)
					return
				}
				want, serr := core.Solve(p)
				if serr != nil {
					fail("submission %d: oracle failed: %v", k, serr)
					return
				}
				if !table.EqualComparable(want, g) {
					fail("submission %d: %s %dx%d differs from sequential (seed %d)", k, m, rows, cols, seed)
					return
				}
				mu.Lock()
				done++
				mu.Unlock()
			case errors.As(err, &rej):
				if g != nil {
					fail("submission %d: rejected but grid returned", k)
					return
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			case errors.As(err, &can):
				if g != nil {
					fail("submission %d: canceled but grid returned", k)
					return
				}
				mu.Lock()
				canceled++
				mu.Unlock()
			default:
				fail("submission %d: unexpected error type %T: %v", k, err, err)
			}
		}(k)
	}
	wg.Wait()
	s.Close()
	for _, f := range failures {
		t.Error(f)
	}
	if total := done + canceled + rejected + int64(len(failures)); total != int64(n) {
		t.Errorf("outcomes %d done + %d canceled + %d rejected != %d submissions", done, canceled, rejected, n)
	}
	st := s.Stats()
	if st.Done != done || st.Canceled != canceled || st.Rejected != rejected {
		t.Errorf("stats done/canceled/rejected = %d/%d/%d, observed %d/%d/%d",
			st.Done, st.Canceled, st.Rejected, done, canceled, rejected)
	}
	if st.QueueDepth != 0 || st.Active != 0 {
		t.Errorf("closed scheduler reports queue=%d active=%d", st.QueueDepth, st.Active)
	}
	t.Logf("soak: %d done, %d canceled, %d rejected, %d steals, peak queue %d, peak active %d",
		done, canceled, rejected, st.Steals, st.PeakQueueDepth, st.PeakActive)
	// Workers exited at Close; give stragglers (test-side cancel timers)
	// a moment before declaring a leak.
	if err := leak.Err(time.Second); err != nil {
		t.Error(err)
	}
}

// TestSchedulerSoak is the short always-on soak (a couple of seconds).
// The long variant runs under -tags soak.
func TestSchedulerSoak(t *testing.T) {
	runSoak(t, 60, 48, 1)
}
