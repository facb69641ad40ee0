package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

// postJSON sends one raw body at /v1/solve and returns the response.
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeErrorBody decodes the typed error payload every non-2xx carries.
func decodeErrorBody(t *testing.T, resp *http.Response) api.ErrorBody {
	t.Helper()
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	return body
}

func TestSolveStatusMapping(t *testing.T) {
	srv, ts, c := newTestService(t, server.Config{Workers: 2, MaxInflight: 1})

	t.Run("done", func(t *testing.T) {
		resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 8, Cols: 8, Mask: "W,N"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != "done" || resp.ID <= 0 || resp.Digest == "" {
			t.Errorf("done response malformed: %+v", resp)
		}
		if resp.Mask != "{W,N}" || resp.Pattern == "" {
			t.Errorf("mask/pattern not echoed: %+v", resp)
		}
	})

	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("malformed-json", func(t *testing.T) {
		resp := postJSON(t, ts.URL, "{not json")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		if body := decodeErrorBody(t, resp); body.Status != "invalid" {
			t.Errorf("status field %q, want invalid", body.Status)
		}
	})

	t.Run("unknown-field", func(t *testing.T) {
		resp := postJSON(t, ts.URL, `{"rows":4,"cols":4,"masq":"W,N"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("bad-mask", func(t *testing.T) {
		resp := postJSON(t, ts.URL, `{"rows":4,"cols":4,"mask":"E,Q"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("bad-kind", func(t *testing.T) {
		resp := postJSON(t, ts.URL, `{"rows":4,"cols":4,"workload":{"kind":"nope"}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("too-large", func(t *testing.T) {
		resp := postJSON(t, ts.URL, `{"rows":100000,"cols":100000}`)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		release := srv.AcquireInflightForTest()
		defer release()
		resp := postJSON(t, ts.URL, `{"rows":4,"cols":4}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After header")
		}
		body := decodeErrorBody(t, resp)
		if body.Status != "rejected" || body.RetryAfterMS <= 0 {
			t.Errorf("429 body malformed: %+v", body)
		}
		// The typed client maps it onto ErrOverloaded.
		c2, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		_, err = c2.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
		if !errors.Is(err, client.ErrOverloaded) {
			t.Errorf("client error = %v, want ErrOverloaded", err)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// 1 ms against a million-cell table cannot finish: the deadline
		// expires queued or mid-run, either way a 408 on the wire.
		_, err := c.Solve(context.Background(), &api.SolveRequest{
			Rows: 1024, Cols: 1024, Mask: "W,N", DeadlineMS: 1,
		})
		if !errors.Is(err, client.ErrTimeout) {
			t.Errorf("client error = %v, want ErrTimeout", err)
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusRequestTimeout {
			t.Errorf("error = %#v, want HTTP 408", err)
		}
	})
}

func TestHealthReadyMetricsEndpoints(t *testing.T) {
	srv, _, c := newTestService(t, server.Config{Workers: 2})
	if err := c.Health(context.Background()); err != nil {
		t.Errorf("healthz: %v", err)
	}
	if err := c.Ready(context.Background()); err != nil {
		t.Errorf("readyz before drain: %v", err)
	}
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 16, Cols: 16}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sched.Done < 1 || snap.Solves < 1 {
		t.Errorf("metrics missed the solve: sched.done=%d solves=%d", snap.Sched.Done, snap.Solves)
	}

	// Draining: readyz flips to 503 and new solves are refused with a
	// typed draining body, while healthz stays 200 (the process lives).
	srv.BeginDrain()
	if err := c.Ready(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("readyz during drain = %v, want ErrUnavailable", err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Errorf("healthz during drain: %v", err)
	}
	_, err = c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("solve during drain = %v, want ErrUnavailable", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != "draining" {
		t.Errorf("drain error body = %#v, want status draining", err)
	}
}

func TestSolveIDHeaderEchoed(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2})
	resp := postJSON(t, ts.URL, `{"rows":8,"cols":8,"mask":"W,N"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hdr := resp.Header.Get(api.SolveIDHeader)
	if hdr == "" {
		t.Fatalf("response missing %s header", api.SolveIDHeader)
	}
	if hdr != jsonNumber(out.ID) {
		t.Errorf("header %s = %s, body id = %d", api.SolveIDHeader, hdr, out.ID)
	}
}

// jsonNumber renders an int64 the way the header does.
func jsonNumber(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestTraceDirWiring(t *testing.T) {
	dir := t.TempDir()
	_, _, c := newTestService(t, server.Config{Workers: 2, TraceDir: dir})
	resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 32, Cols: 32, Mask: "W,N"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "solve-"+jsonNumber(resp.ID)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file for solve %d not written: %v", resp.ID, err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("trace file is not JSON: %v", err)
	}
}

func TestResponseCellCap(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 2, MaxResponseCells: 64})
	// Under the cap: cells come back.
	small, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 8, Cols: 8, ReturnCells: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Cells) != 8 {
		t.Errorf("under-cap solve returned %d rows of cells, want 8", len(small.Cells))
	}
	// Over the cap: digest only, no error.
	big, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 16, Cols: 16, ReturnCells: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.Cells != nil {
		t.Errorf("over-cap solve returned cells (%d rows); want digest only", len(big.Cells))
	}
	if big.Digest == "" {
		t.Error("over-cap solve missing digest")
	}
}

func TestInlineCellsValidation(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2, MaxInlineCells: 16})
	// Wrong kind for inline cells.
	resp := postJSON(t, ts.URL, `{"rows":2,"cols":2,"workload":{"kind":"mix","cells":[[1,2],[3,4]]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inline cells with mix kind: status %d, want 400", resp.StatusCode)
	}
	// Payload past the inline cap.
	resp = postJSON(t, ts.URL, `{"rows":5,"cols":5,"workload":{"kind":"cost","cells":[[1],[1],[1],[1],[1]]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized inline payload: status %d, want 400", resp.StatusCode)
	}
	// Shape mismatch between cells and rows/cols.
	resp = postJSON(t, ts.URL, `{"rows":2,"cols":2,"workload":{"kind":"cost","cells":[[1,2]]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misshapen inline payload: status %d, want 400", resp.StatusCode)
	}
}
