package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/promlint"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
)

// pinProblem is a small W,N recurrence whose cell (1, 0) calls hook, so a
// test can pin the solving worker or cancel the solve mid-run.
func pinProblem(rows, cols int, hook func()) *lddp.Problem[int64] {
	return &lddp.Problem[int64]{
		Name: "pin", Rows: rows, Cols: cols, Deps: lddp.DepW | lddp.DepN,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			if i == 1 && j == 0 {
				hook()
			}
			return (nb.W + nb.N + int64(i+j)) % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return 0 },
		BytesPerCell: 8,
	}
}

// TestMetricsPinnedSequence drives one fixed sequence through a
// one-worker server: a solve that pins the worker, a submission rejected
// while queued behind it, a solve canceled mid-run, and one HTTP solve.
// Every lddpd_* value the sequence determines is asserted exactly, and
// the JSON sched section must equal the scheduler's own Stats.
func TestMetricsPinnedSequence(t *testing.T) {
	srv, ts, c := newTestService(t, server.Config{Workers: 1})
	s := srv.SchedulerForTest()
	ctx := context.Background()

	// 1. Pin the only worker inside a solve that later completes.
	started, gate := make(chan struct{}), make(chan struct{})
	first := true
	pinned, err := lddp.Submit(ctx, s, pinProblem(4, 4, func() {
		if first {
			first = false
			close(started)
			<-gate
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// 2. Queue a submission behind the pinned worker and cancel it there.
	qctx, qcancel := context.WithCancel(ctx)
	queued, err := lddp.Submit(qctx, s, pinProblem(4, 4, func() {}))
	if err != nil {
		t.Fatal(err)
	}
	qcancel()
	var rej *lddp.Rejected
	if _, err := queued.Wait(); !errors.As(err, &rej) {
		t.Fatalf("queued submission: got %v, want *Rejected", err)
	}

	// 3. Release the pinned solve.
	close(gate)
	if _, err := pinned.Wait(); err != nil {
		t.Fatal(err)
	}

	// 4. A solve that cancels its own context mid-run.
	cctx, ccancel := context.WithCancel(ctx)
	defer ccancel()
	if _, err := lddp.SolveOn(cctx, s, pinProblem(64, 64, ccancel)); !errors.As(err, new(*lddp.Canceled)) {
		t.Fatalf("self-canceling solve: got %v, want *Canceled", err)
	}

	// 5. One solve through the HTTP handler.
	if _, err := c.Solve(ctx, &api.SolveRequest{Rows: 16, Cols: 16, Mask: "W,N"}); err != nil {
		t.Fatal(err)
	}

	doc := scrapeProm(t, ts.URL)
	res, err := promlint.Lint(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("exposition fails lint:\n%v", err)
	}
	for name, want := range map[string]float64{
		"lddpd_solves_total":                      3,
		"lddpd_solve_errors_total":                1,
		"lddpd_sched_submitted_total":             4,
		"lddpd_sched_started_total":               3,
		"lddpd_sched_done_total":                  2,
		"lddpd_sched_canceled_total":              1,
		"lddpd_sched_rejected_total":              1,
		"lddpd_sched_steals_total":                0,
		"lddpd_sched_queue_wait_seconds_count":    3,
		"lddpd_sched_solve_latency_seconds_count": 2,
	} {
		if got := promValue(t, doc, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap lddp.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Solves != 3 || snap.Errors != 1 {
		t.Errorf("solves/errors = %d/%d, want 3/1", snap.Solves, snap.Errors)
	}
	st := s.Stats()
	want := lddp.SchedSnapshot{
		Submitted: st.Submitted, Started: st.Started,
		Done: st.Done, Canceled: st.Canceled, Rejected: st.Rejected,
		Steals:         st.Steals,
		PeakQueueDepth: st.PeakQueueDepth, PeakActive: st.PeakActive,
		QueueWaitNS:    st.QueueWait.SumNS,
		MaxQueueWaitNS: st.QueueWait.MaxNS,
		QueueWait:      st.QueueWait,
		SolveLatency:   st.SolveLatency,
	}
	if snap.Sched != want {
		t.Errorf("JSON sched section %+v, want Stats %+v", snap.Sched, want)
	}
	if st.Started != 3 || st.QueueWait.Count != 3 || st.SolveLatency.Count != 2 {
		t.Errorf("started=%d queue_wait.count=%d solve_latency.count=%d, want 3/3/2",
			st.Started, st.QueueWait.Count, st.SolveLatency.Count)
	}
}
