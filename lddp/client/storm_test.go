package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/lddp/api"
)

// A sustained 429 storm: every attempt in the budget is pushed back
// with a fresh Retry-After hint. The jitter-bound and budget-exhaustion
// paths are covered elsewhere; these tests pin the storm path — the
// client must sleep the server's hint verbatim before every retry (its
// own exponential backoff never kicks in while hints keep arriving) and
// end with ErrOverloaded carrying the final hint.

func TestRetryAfterStormHonoredVerbatim(t *testing.T) {
	// Distinct per-response hints so a backoff-derived sleep (which
	// doubles) cannot pass by coincidence.
	hints := []int64{7, 3, 11, 5}
	script := make([]scriptedStep, len(hints))
	for i, ms := range hints {
		script[i] = scriptedStep{status: 429, retryAfterMS: ms}
	}
	srv := newScriptedServer(t, script...)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 80 * time.Millisecond, MaxDelay: time.Second}, &slept)

	_, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("storm outcome = %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("storm error %T carries no *APIError", err)
	}
	if want := time.Duration(hints[3]) * time.Millisecond; apiErr.RetryAfter != want {
		t.Errorf("final error RetryAfter = %v, want the last hint %v", apiErr.RetryAfter, want)
	}
	if got := srv.hits.Load(); got != 4 {
		t.Errorf("server saw %d attempts, want the full budget of 4", got)
	}
	// One sleep per retry, each the preceding response's hint verbatim —
	// no jitter, no doubling, no clamping to BaseDelay.
	want := []time.Duration{7 * time.Millisecond, 3 * time.Millisecond, 11 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want hint %v verbatim", i, slept[i], want[i])
		}
	}
}

// TestRetryAfterStormClears: the storm ends one attempt before the
// budget does; the client must ride every hint and then succeed.
func TestRetryAfterStormClears(t *testing.T) {
	srv := newScriptedServer(t,
		scriptedStep{status: 429, retryAfterMS: 2},
		scriptedStep{status: 429, retryAfterMS: 9},
		scriptedStep{status: 429, retryAfterMS: 4},
	)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond}, &slept)
	resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatalf("storm that clears within budget must succeed, got %v", err)
	}
	if resp.Status != "done" {
		t.Errorf("response %+v, want done", resp)
	}
	want := []time.Duration{2 * time.Millisecond, 9 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want hint %v verbatim", i, slept[i], want[i])
		}
	}
}

// storm429Transport fabricates 429+Retry-After responses without a
// network — proving WithTransport is the seam the retry loop sees.
type storm429Transport struct {
	hits atomic.Int64
}

func (tr *storm429Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.hits.Add(1)
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	body, _ := json.Marshal(api.ErrorBody{Status: "rejected", Error: "storm", RetryAfterMS: 6})
	return &http.Response{
		StatusCode: http.StatusTooManyRequests,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    req,
	}, nil
}

func TestRetryAfterStormThroughInjectedTransport(t *testing.T) {
	tr := &storm429Transport{}
	c, err := New("http://stormhost", WithTransport(tr),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 40 * time.Millisecond}),
		WithJitterSource(func() float64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("storm outcome = %v, want ErrOverloaded", err)
	}
	if got := tr.hits.Load(); got != 3 {
		t.Errorf("injected transport saw %d attempts, want 3", got)
	}
	want := []time.Duration{6 * time.Millisecond, 6 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps = %v, want %v (hint verbatim each retry)", slept, want)
	}
}
