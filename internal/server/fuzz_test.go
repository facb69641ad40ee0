package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp/client"
)

// fuzzService lazily boots one shared service for the fuzz target. The
// caps are tiny so any input the validator accepts is a sub-millisecond
// solve — the fuzzer probes the decoder and validator, not the kernel.
var fuzzService struct {
	once sync.Once
	ts   *httptest.Server
}

func fuzzURL() string {
	fuzzService.once.Do(func() {
		srv, err := server.New(server.Config{
			Workers: 2, MaxInflight: 64,
			MaxCells: 4096, MaxInlineCells: 256, MaxResponseCells: 256,
		})
		if err != nil {
			panic(err)
		}
		fuzzService.ts = httptest.NewServer(srv.Handler())
	})
	return fuzzService.ts.URL
}

// frameFor renders one request as a binary wire frame for the corpus.
func frameFor(f *testing.F, req client.SolveRequest) string {
	f.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	hdr := req
	hdr.Workload.Cells = nil
	if err := enc.Header(&hdr); err != nil {
		f.Fatal(err)
	}
	if len(req.Workload.Cells) > 0 {
		var flat []int64
		for _, row := range req.Workload.Cells {
			flat = append(flat, row...)
		}
		if err := enc.Cells(flat); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// FuzzSolveRequest throws arbitrary bytes at the wire boundary, under
// both codecs (binary selects the frame Content-Type). The invariants:
// the decoders/validator never panic, and every input ends in a
// well-formed response — a 4xx with a JSON ErrorBody, or a 200 whose
// body decodes as a SolveResponse with a digest. 5xx would mean a
// malformed request escaped validation into the scheduler.
func FuzzSolveRequest(f *testing.F) {
	// Valid corpus: one request per workload kind, drawn from the e2e
	// suite's shapes, plus edge and junk seeds — each fed through both
	// codec paths.
	valid := []client.SolveRequest{
		{Rows: 31, Cols: 37, Mask: "W,N", Workload: client.WorkloadSpec{Kind: client.KindMix, Seed: 1}},
		{Rows: 1, Cols: 33, Mask: "{W,NW,NE}", Workload: client.WorkloadSpec{Kind: client.KindServe}},
		{Rows: 2, Cols: 2, Mask: "N", Workload: client.WorkloadSpec{Kind: client.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}}},
		{Rows: 33, Cols: 1, Workload: client.WorkloadSpec{Kind: client.KindAlign, Seed: 3}, ReturnCells: true},
		{Rows: 48, Cols: 48, Mask: "w,nw,n,ne", DeadlineMS: 50, Strategy: "parallel"},
	}
	for _, req := range valid {
		doc, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(doc), false)
		f.Add(frameFor(f, req), true)
	}
	f.Add(`{}`, false)
	f.Add(`{"rows":-1,"cols":5}`, false)
	f.Add(`{"rows":1000000,"cols":1000000}`, false)
	f.Add(`{"rows":4,"cols":4,"mask":"E"}`, false)
	f.Add(`{"rows":4,"cols":4,"workload":{"kind":"cost","cells":[[1,2]]}}`, false)
	f.Add(`{"rows":4,"cols":4}{"rows":4,"cols":4}`, false)
	f.Add(`[1,2,3]`, false)
	f.Add(`null`, false)
	f.Add("\x00\xff not json at all", false)
	// Binary edge seeds: JSON under the frame Content-Type, a bare
	// version byte, an unsupported version, varint junk, and a frame
	// claiming a huge cell chunk.
	f.Add(`{"rows":4,"cols":4}`, true)
	f.Add("\x01", true)
	f.Add("\x02\x00", true)
	f.Add("\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", true)
	f.Add("\x01\x02{}\x80\x80\x80\x80\x80\x01", true)

	f.Fuzz(func(t *testing.T, body string, binary bool) {
		// Layer 1: the decoders alone must never panic; the JSON decoder
		// must keep the one-document framing rule.
		if binary {
			if req, release, err := server.ParseBinaryRequest(strings.NewReader(body), 256); err == nil {
				if req == nil {
					t.Fatal("ParseBinaryRequest returned nil request and nil error")
				}
				release()
			}
		} else if req, err := server.ParseSolveRequest(strings.NewReader(body)); err == nil && req == nil {
			t.Fatal("ParseSolveRequest returned nil request and nil error")
		}

		// Layer 2: the full handler stack.
		contentType := "application/json"
		if binary {
			contentType = wire.MediaType
		}
		resp, err := http.Post(fuzzURL()+"/v1/solve", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var out client.SolveResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body does not decode as SolveResponse: %v\n%s", err, raw)
			}
			if out.Status != "done" || out.ID <= 0 || out.Digest == "" {
				t.Fatalf("200 response malformed: %+v", out)
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var out client.ErrorBody
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("%d body does not decode as ErrorBody: %v\n%s", resp.StatusCode, err, raw)
			}
			if out.Error == "" || out.Status == "" {
				t.Fatalf("%d response missing error/status: %s", resp.StatusCode, raw)
			}
		default:
			t.Fatalf("input produced status %d (want 200 or 4xx): %s\nrequest: %q", resp.StatusCode, raw, body)
		}
	})
}
