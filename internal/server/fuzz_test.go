package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp/api"
)

// fuzzService lazily boots one shared service for the fuzz targets. The
// caps are tiny so any input the validator accepts is a sub-millisecond
// solve — the fuzzers probe the decoders and validators, not the kernel.
var fuzzService struct {
	once sync.Once
	ts   *httptest.Server
}

// The fuzz service's table and inline-cell caps.
const (
	fuzzMaxCells  = 4096
	fuzzMaxInline = 256
)

func fuzzURL() string {
	fuzzService.once.Do(func() {
		srv, err := server.New(server.Config{
			Workers: 2, MaxInflight: 64,
			MaxCells: fuzzMaxCells, MaxInlineCells: fuzzMaxInline, MaxResponseCells: 256,
		})
		if err != nil {
			panic(err)
		}
		fuzzService.ts = httptest.NewServer(srv.Handler())
	})
	return fuzzService.ts.URL
}

// frameFor renders one request as a binary wire frame for the corpus.
func frameFor(f *testing.F, req api.SolveRequest) string {
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
	valid := []api.SolveRequest{
		{Rows: 31, Cols: 37, Mask: "W,N", Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 1}},
		{Rows: 1, Cols: 33, Mask: "{W,NW,NE}", Workload: api.WorkloadSpec{Kind: api.KindServe}},
		{Rows: 2, Cols: 2, Mask: "N", Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}}},
		{Rows: 33, Cols: 1, Workload: api.WorkloadSpec{Kind: api.KindAlign, Seed: 3}, ReturnCells: true},
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
	// A frame whose header sides multiply, wrapped, to its one inline cell.
	f.Add(frameFor(f, api.SolveRequest{Rows: math.MaxInt64, Cols: math.MaxInt64,
		Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{7}}}}), true)
	f.Add(`{}`, false)
	f.Add(`{"rows":-1,"cols":5}`, false)
	f.Add(`{"rows":1000000,"cols":1000000}`, false)
	f.Add(`{"rows":4,"cols":4,"mask":"E"}`, false)
	f.Add(`{"rows":4,"cols":4,"workload":{"kind":"cost","cells":[[1,2]]}}`, false)
	f.Add(`{"rows":4,"cols":4}{"rows":4,"cols":4}`, false)
	// Sides whose int64 product wraps past the cell cap.
	f.Add(`{"rows":4294967296,"cols":4294967296,"workload":{"kind":"serve"}}`, false)
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
			if req, release, err := server.ParseBinaryRequest(strings.NewReader(body), fuzzMaxInline); err == nil {
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
			var out api.SolveResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body does not decode as SolveResponse: %v\n%s", err, raw)
			}
			if out.Status != "done" || out.ID <= 0 || out.Digest == "" {
				t.Fatalf("200 response malformed: %+v", out)
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var out api.ErrorBody
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

// bandSection is one tagged halo section of a hand-built band frame.
type bandSection struct {
	tag   uint64
	cells []int64
}

// haloSections lists req's halos as the sections a client would send.
func haloSections(req api.BandRequest) []bandSection {
	var out []bandSection
	for _, s := range []bandSection{
		{wire.SectionNorth, req.HaloNorth},
		{wire.SectionWest, req.HaloWest},
		{wire.SectionEast, req.HaloEast},
	} {
		if len(s.cells) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// bandFrameFor renders a band request as a binary wire frame: the header
// is req without its halos, then the inline cell section (which a valid
// band frame leaves empty) and the given halo sections in order.
func bandFrameFor(f *testing.F, req api.BandRequest, inline []int64, sections ...bandSection) string {
	f.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	hdr := req
	hdr.HaloNorth, hdr.HaloWest, hdr.HaloEast = nil, nil, nil
	err := enc.Header(&hdr)
	if err == nil && len(inline) > 0 {
		err = enc.Cells(inline)
	}
	if err == nil {
		err = enc.BeginSections()
	}
	for _, s := range sections {
		if err == nil {
			err = enc.Section(s.tag, s.cells)
		}
	}
	if err == nil {
		err = enc.Close()
	}
	if err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// validBand is the band request for block rows [r0, r1) x cols [c0, c1)
// of a rows x cols table, carrying exactly the halos api.HaloSpec
// demands for the resolved mask.
func validBand(f *testing.F, kind, mask string, rows, cols, r0, r1, c0, c1 int) api.BandRequest {
	f.Helper()
	m, err := api.ResolveMask(kind, mask)
	if err != nil {
		f.Fatal(err)
	}
	seq := func(n int, base int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = base + int64(i)
		}
		return out
	}
	req := api.BandRequest{
		Rows: rows, Cols: cols, Row0: r0, Row1: r1, Col0: c0, Col1: c1,
		Mask: mask, Workload: api.WorkloadSpec{Kind: kind, Seed: 5},
	}
	h := api.HaloSpec(m, rows, cols, r0, r1, c0, c1)
	if h.NorthLen > 0 {
		req.HaloNorth, req.NorthLo = seq(h.NorthLen, 100), h.NorthLo
	}
	if h.WestLen > 0 {
		req.HaloWest = seq(h.WestLen, 200)
	}
	if h.EastLen > 0 {
		req.HaloEast = seq(h.EastLen, 300)
	}
	return req
}

// FuzzBandRequest throws arbitrary bytes at POST /v1/band/solve, the
// fleet peer protocol, under both codecs: JSON bodies, and binary frames
// whose halos travel as tagged sections. The invariants: the decoders
// and the handler never panic and never answer 5xx; every non-200 is a
// 4xx with a JSON ErrorBody; every 200 answers a request the decoder
// accepts for a table within the cell cap, and decodes as a
// BandResponse that echoes the requested block and holds exactly its
// cells under the digest it reports.
func FuzzBandRequest(f *testing.F) {
	valid := []api.BandRequest{
		validBand(f, api.KindMix, "{W,NW,N}", 24, 20, 8, 16, 4, 12),
		validBand(f, api.KindServe, "N", 16, 16, 0, 16, 0, 8),
		validBand(f, api.KindCost, "{N,NE}", 12, 12, 4, 8, 0, 6),
		validBand(f, api.KindAlign, "", 10, 10, 5, 10, 5, 10),
		validBand(f, api.KindMix, "{W,NW,N,NE}", 20, 30, 10, 20, 10, 20),
	}
	addBoth := func(req api.BandRequest) {
		doc, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(doc), false)
		f.Add(bandFrameFor(f, req, nil, haloSections(req)...), true)
	}
	for _, req := range valid {
		addBoth(req)
	}

	// The golden request document (its halos do not fit its block) and
	// its binary frame.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "band_request.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden), false)
	greq, err := server.ParseBandRequest(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bandFrameFor(f, *greq, nil, haloSections(*greq)...), true)

	// A west halo one cell short of the block.
	short := valid[0]
	short.HaloWest = short.HaloWest[:len(short.HaloWest)-1]
	addBoth(short)
	// A repeated north section, and an unknown section tag.
	north := bandSection{wire.SectionNorth, valid[0].HaloNorth}
	west := bandSection{wire.SectionWest, valid[0].HaloWest}
	f.Add(bandFrameFor(f, valid[0], nil, north, north, west), true)
	f.Add(bandFrameFor(f, valid[0], nil, north, west, bandSection{9, []int64{1, 2}}), true)
	// An east halo under a mask without NE.
	east := valid[0]
	east.HaloEast = make([]int64, east.Row1-east.Row0)
	addBoth(east)
	// Blocks outside the table.
	past := valid[1]
	past.Row1 = past.Rows + 1
	addBoth(past)
	negative := valid[1]
	negative.Col0 = -1
	addBoth(negative)
	// Inline cells: in the frame's cell section, and in the JSON workload.
	f.Add(bandFrameFor(f, valid[1], []int64{1, 2, 3}), true)
	inline := valid[1]
	inline.Workload = api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}}
	addBoth(inline)
	// Sides whose int64 product wraps past the cell cap.
	addBoth(api.BandRequest{Rows: 1 << 32, Cols: 1 << 32, Row1: 1, Col1: 1, Mask: "N",
		Workload: api.WorkloadSpec{Kind: api.KindServe}})
	f.Add(`{}`, false)
	f.Add(`null`, false)
	f.Add(`{"rows":4,"cols":4,"row1":4,"col1":4}{"rows":4}`, false)
	f.Add("\x01", true)

	f.Fuzz(func(t *testing.T, body string, binary bool) {
		// Layer 1: the decoders alone must never panic.
		var req *api.BandRequest
		var perr error
		if binary {
			req, perr = server.ParseBinaryBandRequest(strings.NewReader(body), fuzzMaxInline)
		} else {
			req, perr = server.ParseBandRequest(strings.NewReader(body))
		}
		if perr == nil && req == nil {
			t.Fatal("band request decoder returned nil request and nil error")
		}

		// Layer 2: the full handler stack.
		contentType := "application/json"
		if binary {
			contentType = wire.MediaType
		}
		resp, err := http.Post(fuzzURL()+"/v1/band/solve", contentType, strings.NewReader(body))
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
			if perr != nil {
				t.Fatalf("200 for a body the decoder rejects (%v): %q", perr, body)
			}
			if req.Cols <= 0 || int64(req.Rows) > fuzzMaxCells/int64(req.Cols) {
				t.Fatalf("200 for a %dx%d table, past the %d-cell cap", req.Rows, req.Cols, fuzzMaxCells)
			}
			var out api.BandResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body does not decode as BandResponse: %v\n%s", err, raw)
			}
			if out.Status != "done" || out.ID <= 0 {
				t.Fatalf("200 response malformed: %+v", out)
			}
			if out.Row0 != req.Row0 || out.Row1 != req.Row1 || out.Col0 != req.Col0 || out.Col1 != req.Col1 {
				t.Fatalf("response block rows [%d,%d) x cols [%d,%d), requested [%d,%d) x [%d,%d)",
					out.Row0, out.Row1, out.Col0, out.Col1, req.Row0, req.Row1, req.Col0, req.Col1)
			}
			rows, cols := req.Row1-req.Row0, req.Col1-req.Col0
			if len(out.Cells) != rows {
				t.Fatalf("response holds %d rows, block has %d", len(out.Cells), rows)
			}
			flat := make([]int64, 0, rows*cols)
			for i, row := range out.Cells {
				if len(row) != cols {
					t.Fatalf("response row %d holds %d cells, block has %d columns", i, len(row), cols)
				}
				flat = append(flat, row...)
			}
			block, err := server.BlockProblem(req)
			if err != nil {
				t.Fatalf("200 for a band request BlockProblem refuses: %v", err)
			}
			want, err := core.Solve(block)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(flat, want.RowMajorData()) {
				t.Fatalf("response cells differ from core.Solve of the block and its halos")
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var out api.ErrorBody
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
