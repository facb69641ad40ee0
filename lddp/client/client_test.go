package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/lddp/api"
)

// scriptedServer answers /v1/solve from a fixed status script, then 200s.
type scriptedServer struct {
	ts     *httptest.Server
	script []scriptedStep
	hits   atomic.Int64
}

type scriptedStep struct {
	status       int
	retryAfterMS int64
	headerOnly   bool // Retry-After header without a JSON body hint
}

func newScriptedServer(t *testing.T, script ...scriptedStep) *scriptedServer {
	t.Helper()
	s := &scriptedServer{script: script}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(s.hits.Add(1)) - 1
		if n >= len(s.script) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(api.SolveResponse{ID: int64(n + 1), Status: "done", Digest: "feed"})
			return
		}
		step := s.script[n]
		if step.retryAfterMS > 0 {
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(step.status)
		body := api.ErrorBody{Status: "scripted", Error: "scripted failure"}
		if step.retryAfterMS > 0 && !step.headerOnly {
			body.RetryAfterMS = step.retryAfterMS
		}
		json.NewEncoder(w).Encode(body)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// newTestClient builds a client with deterministic jitter (always the
// lower edge) and a sleep recorder instead of real time.
func newTestClient(t *testing.T, url string, p RetryPolicy, slept *[]time.Duration) *Client {
	t.Helper()
	c, err := New(url, WithRetry(p), WithJitterSource(func() float64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return c
}

// TestSolveRetriesUntilSuccess: two 429s then a 200; the client must make
// three attempts, honoring the server's Retry-After over its own backoff.
func TestSolveRetriesUntilSuccess(t *testing.T) {
	srv := newScriptedServer(t,
		scriptedStep{status: 429, retryAfterMS: 7},
		scriptedStep{status: 503},
	)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 80 * time.Millisecond, MaxDelay: time.Second}, &slept)
	resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" {
		t.Errorf("response %+v, want done", resp)
	}
	if got := srv.hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	// Sleep 1 follows the 429: the body's 7 ms Retry-After, verbatim.
	// Sleep 2 follows the 503 without a hint: computed backoff, second
	// retry, rnd=0 -> (80ms << 1)/2 = 80ms.
	want := []time.Duration{7 * time.Millisecond, 80 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", slept, want)
	}
}

// TestSolveRetryAfterHeaderFallback: a 429 whose only hint is the coarse
// Retry-After header (whole seconds) — the client must still honor it.
func TestSolveRetryAfterHeaderFallback(t *testing.T) {
	srv := newScriptedServer(t, scriptedStep{status: 429, retryAfterMS: 1000, headerOnly: true})
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond}, &slept)
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Errorf("sleeps = %v, want [1s] from the Retry-After header", slept)
	}
}

// TestSolveBudgetExhaustionReturnsLastTypedError: every attempt 429s;
// after MaxAttempts the client must hand back the final *APIError, still
// matching ErrOverloaded.
func TestSolveBudgetExhaustionReturnsLastTypedError(t *testing.T) {
	srv := newScriptedServer(t,
		scriptedStep{status: 429, retryAfterMS: 3},
		scriptedStep{status: 429, retryAfterMS: 3},
		scriptedStep{status: 429, retryAfterMS: 3},
	)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}, &slept)
	_, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("error = %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T does not carry *APIError", err)
	}
	if apiErr.HTTPStatus != 429 || apiErr.Status != "scripted" || apiErr.RetryAfter != 3*time.Millisecond {
		t.Errorf("last typed error = %+v, want the final 429 with its hint", apiErr)
	}
	if got := srv.hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want exactly MaxAttempts=3", got)
	}
	if len(slept) != 2 {
		t.Errorf("%d sleeps for 3 attempts, want 2", len(slept))
	}
}

// TestSolveNonRetryableReturnsImmediately: a 400 must not be retried.
func TestSolveNonRetryableReturnsImmediately(t *testing.T) {
	srv := newScriptedServer(t,
		scriptedStep{status: 400},
		scriptedStep{status: 400},
	)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond}, &slept)
	_, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("error = %v, want ErrInvalid", err)
	}
	if got := srv.hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts for a 400, want 1", got)
	}
	if len(slept) != 0 {
		t.Errorf("client slept %v before a non-retryable error", slept)
	}
}

// TestSolveTimeoutNotRetried: 408 and 499 map to ErrTimeout and are
// terminal — the deadline was the caller's budget, not the client's.
func TestSolveTimeoutNotRetried(t *testing.T) {
	for _, status := range []int{408, 499} {
		srv := newScriptedServer(t, scriptedStep{status: status})
		var slept []time.Duration
		c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4}, &slept)
		_, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("status %d: error = %v, want ErrTimeout", status, err)
		}
		if got := srv.hits.Load(); got != 1 {
			t.Errorf("status %d: %d attempts, want 1", status, got)
		}
	}
}

// TestSolveCancelDuringBackoff: a context canceled while the client is
// waiting out a backoff must end the loop with the context's cause.
func TestSolveCancelDuringBackoff(t *testing.T) {
	srv := newScriptedServer(t,
		scriptedStep{status: 429, retryAfterMS: 5},
		scriptedStep{status: 429, retryAfterMS: 5},
	)
	var slept []time.Duration
	c := newTestClient(t, srv.ts.URL, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond}, &slept)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the caller gives up mid-backoff
		return context.Cause(ctx)
	}
	_, err := c.Solve(ctx, &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if got := srv.hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts after cancel, want 1", got)
	}
}

// TestNewRejectsBadBase pins the constructor's URL validation.
func TestNewRejectsBadBase(t *testing.T) {
	for _, base := range []string{"", "localhost:8080", "ftp://x", "http//x"} {
		if _, err := New(base); err == nil {
			t.Errorf("New(%q) accepted an invalid base URL", base)
		}
	}
	c, err := New("http://localhost:8080/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.base != "http://localhost:8080" {
		t.Errorf("trailing slash not trimmed: %q", c.base)
	}
}
