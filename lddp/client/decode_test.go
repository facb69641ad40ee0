package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
	"repro/lddp/api"
)

// fakeResponse is what a fake node answers to one request: a header
// document with the given cells, as a binary frame or as JSON.
type fakeResponse struct {
	header any
	cells  []int64
	json   bool
	cut    int // bytes cut off the end of the frame
}

// fakeNode serves resp to every request and counts the requests.
func fakeNode(t *testing.T, resp fakeResponse) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		if resp.json {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp.header)
			return
		}
		w.Header().Set("Content-Type", wire.MediaType)
		var frame bytes.Buffer
		enc := wire.NewEncoder(&frame)
		enc.Header(resp.header)
		if len(resp.cells) > 0 {
			enc.Cells(resp.cells)
		}
		enc.Close()
		w.Write(frame.Bytes()[:frame.Len()-resp.cut])
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func seq(n int) []int64 {
	cells := make([]int64, n)
	for i := range cells {
		cells[i] = int64(3*i + 1)
	}
	return cells
}

// TestSolveDecodeChecksRequest: a /v1/solve response is decoded against
// the request that asked for it. A header for another table shape is an
// ErrMismatch, refused after one attempt; a frame carrying more or fewer
// cells than the request's rows x cols is a decode error.
func TestSolveDecodeChecksRequest(t *testing.T) {
	req := &api.SolveRequest{Rows: 3, Cols: 4, ReturnCells: true}
	cases := []struct {
		name     string
		resp     fakeResponse
		mismatch bool
		fail     bool
		cells    int
	}{
		{name: "cells", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 3, Cols: 4}, cells: seq(12)}, cells: 12},
		{name: "no cells", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 3, Cols: 4}}},
		{name: "rows differ", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 4, Cols: 4}, cells: seq(16)}, mismatch: true},
		{name: "cols differ", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 3, Cols: 3}}, mismatch: true},
		{name: "transposed", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 4, Cols: 3}, cells: seq(12)}, mismatch: true},
		{name: "too many cells", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 3, Cols: 4}, cells: seq(13)}, fail: true},
		{name: "too few cells", resp: fakeResponse{header: api.SolveResponse{Status: "done", Rows: 3, Cols: 4}, cells: seq(11)}, fail: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, hits := fakeNode(t, tc.resp)
			c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3}), WithCodec(CodecBinary))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, err := c.Solve(context.Background(), req)
			switch {
			case tc.mismatch:
				if !errors.Is(err, ErrMismatch) {
					t.Fatalf("err = %v, want ErrMismatch", err)
				}
				if n := hits.Load(); n != 1 {
					t.Errorf("server saw %d attempts, want 1 (a mismatch must not retry)", n)
				}
			case tc.fail:
				if err == nil || errors.Is(err, ErrMismatch) {
					t.Fatalf("err = %v, want a decode error", err)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i, row := range resp.Cells {
					for j, v := range row {
						if want := int64(3*(i*req.Cols+j) + 1); v != want {
							t.Fatalf("cell (%d,%d) = %d, want %d", i, j, v, want)
						}
						got++
					}
				}
				if got != tc.cells {
					t.Errorf("decoded %d cells, want %d", got, tc.cells)
				}
			}
		})
	}
}

// TestSolveBandDecodeChecksBlock: a band response for any block but the
// requested one — even one of the same size, which assembly would
// otherwise accept — is an ErrMismatch on both codecs, refused after one
// attempt and before the destination is resolved, so no cell of the
// table changes; one whose cells do not fill the block, or whose frame
// is cut short, is a decode error. A good response lands the same cells
// in the block's rectangle of the table on both codecs, and nothing
// outside it.
func TestSolveBandDecodeChecksBlock(t *testing.T) {
	req := &api.BandRequest{Rows: 16, Cols: 16, Row0: 4, Row1: 8, Col0: 2, Col1: 5, Workload: api.WorkloadSpec{Kind: api.KindMix}}
	block := func(r0, r1, c0, c1 int) api.BandResponse {
		return api.BandResponse{Status: "done", Row0: r0, Row1: r1, Col0: c0, Col1: c1}
	}
	cases := []struct {
		name     string
		resp     fakeResponse
		mismatch bool
		fail     bool
	}{
		{name: "binary", resp: fakeResponse{header: block(4, 8, 2, 5), cells: seq(12)}},
		{name: "json", resp: fakeResponse{header: api.BandResponse{Status: "done", Row0: 4, Row1: 8, Col0: 2, Col1: 5,
			Cells: [][]int64{{1, 4, 7}, {10, 13, 16}, {19, 22, 25}, {28, 31, 34}}}, json: true}},
		{name: "binary shifted rows", resp: fakeResponse{header: block(5, 9, 2, 5), cells: seq(12)}, mismatch: true},
		{name: "binary shifted cols", resp: fakeResponse{header: block(4, 8, 3, 6), cells: seq(12)}, mismatch: true},
		{name: "binary row1 differs", resp: fakeResponse{header: block(4, 9, 2, 5), cells: seq(15)}, mismatch: true},
		{name: "json row0 differs", resp: fakeResponse{header: block(0, 8, 2, 5), json: true}, mismatch: true},
		{name: "json col1 differs", resp: fakeResponse{header: block(4, 8, 2, 6), json: true}, mismatch: true},
		{name: "json missing row", resp: fakeResponse{header: api.BandResponse{Status: "done", Row0: 4, Row1: 8, Col0: 2, Col1: 5,
			Cells: [][]int64{{1, 4, 7}, {10, 13, 16}, {19, 22, 25}}}, json: true}, fail: true},
		{name: "json short row", resp: fakeResponse{header: api.BandResponse{Status: "done", Row0: 4, Row1: 8, Col0: 2, Col1: 5,
			Cells: [][]int64{{1, 4, 7}, {10, 13}, {19, 22, 25}, {28, 31, 34}}}, json: true}, fail: true},
		{name: "binary too many cells", resp: fakeResponse{header: block(4, 8, 2, 5), cells: seq(13)}, fail: true},
		{name: "binary too few cells", resp: fakeResponse{header: block(4, 8, 2, 5), cells: seq(11)}, fail: true},
		{name: "binary no cells", resp: fakeResponse{header: block(4, 8, 2, 5)}, fail: true},
		{name: "binary cut mid-cell", resp: fakeResponse{header: block(4, 8, 2, 5), cells: seq(12), cut: 8 + 1 + 4}, fail: true},
		{name: "binary cut trailer", resp: fakeResponse{header: block(4, 8, 2, 5), cells: seq(12), cut: 3}, fail: true},
	}
	const guard = -1
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, hits := fakeNode(t, tc.resp)
			c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3}), WithCodec(CodecBinary))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			table := make([]int64, req.Rows*req.Cols)
			for i := range table {
				table[i] = guard
			}
			resolved := 0
			resp, err := c.SolveBand(context.Background(), req, func() ([]int64, int) {
				resolved++
				return table[req.Row0*req.Cols+req.Col0:], req.Cols
			})
			switch {
			case tc.mismatch:
				if !errors.Is(err, ErrMismatch) {
					t.Fatalf("err = %v, want ErrMismatch", err)
				}
				if n := hits.Load(); n != 1 {
					t.Errorf("server saw %d attempts, want 1 (a mismatch must not retry)", n)
				}
				if resolved != 0 {
					t.Errorf("destination resolved %d times for a mismatched block, want 0", resolved)
				}
				for i, v := range table {
					if v != guard {
						t.Fatalf("table cell %d = %d after a mismatched block, want it untouched", i, v)
					}
				}
			case tc.fail:
				if err == nil || errors.Is(err, ErrMismatch) {
					t.Fatalf("err = %v, want a decode error", err)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if resp.Cells != nil {
					t.Errorf("response carries %d rows; the block belongs in the table", len(resp.Cells))
				}
				for i := 0; i < req.Rows; i++ {
					for j := 0; j < req.Cols; j++ {
						want := int64(guard)
						if i >= req.Row0 && i < req.Row1 && j >= req.Col0 && j < req.Col1 {
							want = int64(3*((i-req.Row0)*(req.Col1-req.Col0)+j-req.Col0) + 1)
						}
						if got := table[i*req.Cols+j]; got != want {
							t.Fatalf("table cell (%d,%d) = %d, want %d", i, j, got, want)
						}
					}
				}
			}
		})
	}
}

// bandFrame encodes the binary band response of req's block.
func bandFrame(tb testing.TB, req *api.BandRequest) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.Header(api.BandResponse{ID: 1, Status: "done", Row0: req.Row0, Row1: req.Row1,
		Col0: req.Col0, Col1: req.Col1, Mask: "{W,N}"}); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Cells(seq((req.Row1 - req.Row0) * (req.Col1 - req.Col0))); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBandResponseDecode512x256 decodes one 512x256 band frame the
// way SolveBand does, into the block's rectangle of a 1024x1024 table:
// the coordinator's receive cost per fleet block. make bench-wire gates
// its allocs/op and B/op: the block lands in the caller's table, so
// neither grows with the block.
func BenchmarkBandResponseDecode512x256(b *testing.B) {
	req := &api.BandRequest{Rows: 1024, Cols: 1024, Row0: 512, Row1: 1024, Col0: 256, Col1: 512}
	frame := bandFrame(b, req)
	body := bytes.NewReader(frame)
	hresp := &http.Response{Header: http.Header{"Content-Type": {wire.MediaType}}, Body: io.NopCloser(body)}
	table := make([]int64, req.Rows*req.Cols)
	dst := func() ([]int64, int) { return table[req.Row0*req.Cols+req.Col0:], req.Cols }
	last := (req.Row1-1)*req.Cols + req.Col1 - 1
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(frame)
		table[last] = 0
		if _, err := decodeBand(hresp, req, dst); err != nil {
			b.Fatal(err)
		}
		if want := int64(3*(512*256-1) + 1); table[last] != want {
			b.Fatalf("block's last cell = %d, want %d", table[last], want)
		}
	}
}
