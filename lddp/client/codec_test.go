package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/lddp/api"
)

// TestEncodeRequestJSONDefault: the default codec sends a JSON document
// with JSON headers.
func TestEncodeRequestJSONDefault(t *testing.T) {
	var gotCT, gotAccept string
	var gotBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCT = r.Header.Get("Content-Type")
		gotAccept = r.Header.Get("Accept")
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		gotBody = buf.Bytes()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.SolveResponse{ID: 1, Status: "done", Digest: "feed"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	if gotCT != "application/json" || gotAccept != "application/json" {
		t.Errorf("headers Content-Type=%q Accept=%q, want application/json for both", gotCT, gotAccept)
	}
	var req api.SolveRequest
	if err := json.Unmarshal(gotBody, &req); err != nil || req.Rows != 4 {
		t.Errorf("body is not the JSON request: %v (%q)", err, gotBody)
	}
}

// TestWithCacheControlHeader: the option attaches Cache-Control to
// every solve request.
func TestWithCacheControlHeader(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("Cache-Control")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.SolveResponse{ID: 1, Status: "done", Digest: "feed"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}), WithCacheControl("no-store"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	if got != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", got)
	}
}

// TestBinaryCodecRoundTrip: a binary-codec client frames the request
// (inline cells in the cell section, not the header), advertises both
// media types, and decodes a framed response back into row slices.
func TestBinaryCodecRoundTrip(t *testing.T) {
	inline := [][]int64{{1, 2, 3}, {4, 5, 6}}
	result := []int64{10, 11, 12, 13, 14, 15}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != wire.MediaType {
			t.Errorf("request Content-Type = %q, want %q", ct, wire.MediaType)
		}
		if accept := r.Header.Get("Accept"); accept != wire.MediaType+", application/json" {
			t.Errorf("request Accept = %q", accept)
		}
		d := wire.NewDecoder(r.Body)
		hdr, err := d.Header()
		if err != nil {
			t.Errorf("decoding request frame: %v", err)
			return
		}
		var req api.SolveRequest
		if err := json.Unmarshal(hdr, &req); err != nil {
			t.Errorf("request header: %v", err)
			return
		}
		if req.Workload.Cells != nil {
			t.Errorf("frame header still carries inline cells")
		}
		cells, err := d.Cells(nil)
		if err != nil {
			t.Errorf("request cells: %v", err)
			return
		}
		if err := d.Close(); err != nil {
			t.Errorf("request digest: %v", err)
			return
		}
		if want := []int64{1, 2, 3, 4, 5, 6}; len(cells) != len(want) {
			t.Errorf("request cells = %v, want %v", cells, want)
		} else {
			for i := range want {
				if cells[i] != want[i] {
					t.Errorf("request cell %d = %d, want %d", i, cells[i], want[i])
				}
			}
		}

		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		enc.Header(api.SolveResponse{ID: 7, Status: "done", Rows: 2, Cols: 3, Digest: "feed"})
		enc.Cells(result)
		if err := enc.Close(); err != nil {
			t.Errorf("encoding response: %v", err)
		}
	}))
	defer ts.Close()

	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Solve(context.Background(), &api.SolveRequest{
		Rows: 2, Cols: 3, ReturnCells: true,
		Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: inline},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Digest != "feed" {
		t.Errorf("response = %+v", resp)
	}
	if len(resp.Cells) != 2 || len(resp.Cells[0]) != 3 {
		t.Fatalf("response cells shape %v, want 2x3", resp.Cells)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if resp.Cells[i][j] != result[i*3+j] {
				t.Errorf("cell (%d,%d) = %d, want %d", i, j, resp.Cells[i][j], result[i*3+j])
			}
		}
	}
	// The caller owns the decoded cells: mutating the request's inline
	// payload afterwards must be safe (no aliasing of pooled scratch).
	inline[0][0] = 99
}

// TestBinaryCodecJSONResponseFallback: a binary-codec client still
// decodes a JSON 200 (a server that negotiates down) and JSON error
// bodies.
func TestBinaryCodecJSONResponseFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.SolveResponse{ID: 3, Status: "done", Digest: "beef"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 3 || resp.Digest != "beef" {
		t.Errorf("response = %+v", resp)
	}
}

// TestBinaryCodecErrorBodyStaysTyped: non-2xx responses to a binary
// request decode into *APIError exactly like the JSON codec's.
func TestBinaryCodecErrorBodyStaysTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorBody{Status: "invalid", Error: "bad mask"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

// TestWireVersionMismatchNotRetried: a response frame in an unknown
// version fails with ErrWireVersion after exactly one attempt — the
// mismatch is deterministic, so retrying would resend the same frame.
func TestWireVersionMismatchNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", wire.MediaType)
		w.Write([]byte{wire.Version + 1, 0})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 5}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4})
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1 (version mismatch must not retry)", n)
	}
}

// TestBinaryCodecShapeMismatchRejected: a frame whose cell count does
// not match the header's dimensions is an error, not a mis-sliced table.
func TestBinaryCodecShapeMismatchRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		enc.Header(api.SolveResponse{ID: 1, Status: "done", Rows: 2, Cols: 3, Digest: "feed"})
		enc.Cells([]int64{1, 2, 3, 4}) // 4 cells for a 2x3 table
		enc.Close()
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 2, Cols: 3, ReturnCells: true}); err == nil {
		t.Fatal("shape-mismatched frame decoded without error")
	}
}

// TestEncodeRequestReusableAcrossRetries: the pooled encode buffer must
// survive every retry attempt — the second POST needs the same bytes.
func TestEncodeRequestReusableAcrossRetries(t *testing.T) {
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		bodies = append(bodies, append([]byte(nil), buf.Bytes()...))
		w.Header().Set("Content-Type", "application/json")
		if len(bodies) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorBody{Status: "rejected", Error: "busy", RetryAfterMS: 1})
			return
		}
		json.NewEncoder(w).Encode(api.SolveResponse{ID: 2, Status: "done", Digest: "feed"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 2}), WithCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	resp, err := c.Solve(context.Background(), &api.SolveRequest{
		Rows: 2, Cols: 2,
		Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 {
		t.Errorf("response = %+v", resp)
	}
	if len(bodies) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(bodies))
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("retry resent a different body: %d vs %d bytes", len(bodies[0]), len(bodies[1]))
	}
	if len(bodies[0]) == 0 || bodies[0][0] != wire.Version {
		t.Errorf("body is not a wire frame: % x", bodies[0][:min(8, len(bodies[0]))])
	}
}

// TestPooledBodyRefcount pins the encode-buffer lifecycle: the buffer
// may only return to the pool once Solve's own reference AND every
// reader handed to the transport are released — a reader can outlive
// Do on context cancellation while the write loop drains.
func TestPooledBodyRefcount(t *testing.T) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString("frame bytes")
	b := newPooledBody(buf)
	r1 := b.reader()
	r2 := b.reader() // e.g. a GetBody replay
	if got := b.refs.Load(); got != 3 {
		t.Fatalf("refs = %d after two readers, want 3", got)
	}
	var p1 bytes.Buffer
	if _, err := p1.ReadFrom(r1); err != nil || p1.String() != "frame bytes" {
		t.Fatalf("reader 1 read %q (%v)", p1.String(), err)
	}
	r1.Close()
	r1.Close() // transport and Client.Do may both close; must not double-release
	if got := b.refs.Load(); got != 2 {
		t.Fatalf("refs = %d after closing reader 1, want 2", got)
	}
	b.release() // Solve returns while reader 2 is still in flight
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs = %d after Solve's release, want 1: buffer must stay out of the pool", got)
	}
	var p2 bytes.Buffer
	if _, err := p2.ReadFrom(r2); err != nil || p2.String() != "frame bytes" {
		t.Fatalf("reader 2 read %q after Solve released (%v)", p2.String(), err)
	}
	r2.Close()
	if got := b.refs.Load(); got != 0 {
		t.Fatalf("refs = %d after final close, want 0", got)
	}
}

// TestSolveBodyContentLength: handing the transport a custom ReadCloser
// must not regress the request to chunked encoding — the server should
// still see an exact Content-Length.
func TestSolveBodyContentLength(t *testing.T) {
	var gotLen int64
	var gotBody int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotLen = r.ContentLength
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		gotBody = buf.Len()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.SolveResponse{ID: 1, Status: "done", Digest: "feed"})
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Solve(context.Background(), &api.SolveRequest{Rows: 4, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	if gotLen <= 0 || int64(gotBody) != gotLen {
		t.Errorf("server saw Content-Length %d for a %d-byte body", gotLen, gotBody)
	}
}
