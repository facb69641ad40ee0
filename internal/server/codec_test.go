// Codec negotiation edge cases: media-type matching with parameters and
// casing, the JSON default, binary request framing errors (always
// answered with JSON error bodies), and response codec selection.
package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp/api"
)

// postSolve sends a raw body with explicit codec headers.
func postSolve(t *testing.T, url string, contentType, accept string, body []byte) *http.Response {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return hresp
}

// frameRequest renders req as a binary wire frame.
func frameRequest(t *testing.T, req *api.SolveRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	hdr := *req
	hdr.Workload.Cells = nil
	if err := enc.Header(&hdr); err != nil {
		t.Fatal(err)
	}
	if len(req.Workload.Cells) > 0 {
		var flat []int64
		for _, row := range req.Workload.Cells {
			flat = append(flat, row...)
		}
		if err := enc.Cells(flat); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jsonBody(t *testing.T, req *api.SolveRequest) []byte {
	t.Helper()
	doc, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestNegotiationResponseCodec: the response codec follows Accept —
// including parameters, q-values (treated as plain tokens), casing, and
// position in the list — while anything else stays JSON.
func TestNegotiationResponseCodec(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2, CacheBytes: -1})
	req := mixReq(21, 4, 4)
	req.ReturnCells = true

	cases := []struct {
		name        string
		contentType string
		accept      string
		wantBinary  bool
	}{
		{"json-default", "application/json", "", false},
		{"accept-json", "application/json", "application/json", false},
		{"accept-binary", "application/json", wire.MediaType, true},
		{"accept-binary-among-others", "application/json", "application/json, " + wire.MediaType, true},
		{"accept-binary-with-q", "application/json", wire.MediaType + ";q=0.9, application/json", true},
		{"accept-binary-upper", "application/json", strings.ToUpper(wire.MediaType), true},
		{"accept-star-stays-json", "application/json", "*/*", false},
		{"content-type-params-ignored", "application/json; charset=utf-8", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hresp := postSolve(t, ts.URL, tc.contentType, tc.accept, jsonBody(t, req))
			defer hresp.Body.Close()
			if hresp.StatusCode != http.StatusOK {
				raw, _ := io.ReadAll(hresp.Body)
				t.Fatalf("status %d: %s", hresp.StatusCode, raw)
			}
			gotBinary := strings.HasPrefix(hresp.Header.Get("Content-Type"), wire.MediaType)
			if gotBinary != tc.wantBinary {
				t.Fatalf("Content-Type %q: binary=%v, want %v", hresp.Header.Get("Content-Type"), gotBinary, tc.wantBinary)
			}
			if tc.wantBinary {
				d := wire.NewDecoder(hresp.Body)
				hdr, err := d.Header()
				if err != nil {
					t.Fatalf("decoding frame header: %v", err)
				}
				var out api.SolveResponse
				if err := json.Unmarshal(hdr, &out); err != nil {
					t.Fatalf("frame header is not a SolveResponse: %v", err)
				}
				cells, err := d.Cells(nil)
				if err != nil {
					t.Fatalf("decoding frame cells: %v", err)
				}
				if err := d.Close(); err != nil {
					t.Fatalf("frame digest: %v", err)
				}
				if len(cells) != 16 {
					t.Fatalf("frame carries %d cells, want 16", len(cells))
				}
			}
		})
	}
}

// TestNegotiationBinaryRequest: a framed request body decodes when
// Content-Type is the frame media type (parameters and case ignored),
// and produces identical results to its JSON twin.
func TestNegotiationBinaryRequest(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2, CacheBytes: -1})
	req := &api.SolveRequest{
		Rows: 3, Cols: 3, Mask: "W,N", ReturnCells: true,
		Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{
			{1, 2, 3}, {4, 5, 6}, {7, 8, 9},
		}},
	}
	decode := func(hresp *http.Response) *api.SolveResponse {
		t.Helper()
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(hresp.Body)
			t.Fatalf("status %d: %s", hresp.StatusCode, raw)
		}
		var out api.SolveResponse
		if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	viaJSON := decode(postSolve(t, ts.URL, "application/json", "", jsonBody(t, req)))
	frame := frameRequest(t, req)
	for _, ct := range []string{wire.MediaType, wire.MediaType + "; v=1", strings.ToUpper(wire.MediaType)} {
		viaFrame := decode(postSolve(t, ts.URL, ct, "", frame))
		if viaFrame.Digest != viaJSON.Digest {
			t.Errorf("Content-Type %q: frame digest %s != JSON digest %s", ct, viaFrame.Digest, viaJSON.Digest)
		}
	}
}

// TestNegotiationBinaryErrors: malformed frames and version mismatches
// answer 400 with a JSON ErrorBody (never a binary error frame), even
// when the client accepts binary; the reject counter records them.
func TestNegotiationBinaryErrors(t *testing.T) {
	srv, ts, _ := newTestService(t, server.Config{Workers: 2})

	checkInvalid := func(t *testing.T, body []byte) {
		t.Helper()
		hresp := postSolve(t, ts.URL, wire.MediaType, wire.MediaType, body)
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", hresp.StatusCode)
		}
		if ct := hresp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error Content-Type %q, want application/json", ct)
		}
		var out api.ErrorBody
		if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
			t.Fatalf("error body does not decode: %v", err)
		}
		if out.Status != "invalid" || out.Error == "" {
			t.Fatalf("error body = %+v, want status invalid with a message", out)
		}
	}

	t.Run("version-mismatch", func(t *testing.T) {
		frame := frameRequest(t, mixReq(1, 4, 4))
		frame[0] = wire.Version + 1
		checkInvalid(t, frame)
	})
	t.Run("json-body-with-binary-content-type", func(t *testing.T) {
		// A JSON document starts with '{' (0x7b), which is not a frame
		// version — the likeliest misconfiguration, caught at byte 0.
		checkInvalid(t, jsonBody(t, mixReq(1, 4, 4)))
	})
	t.Run("truncated-frame", func(t *testing.T) {
		frame := frameRequest(t, mixReq(1, 4, 4))
		checkInvalid(t, frame[:len(frame)-3])
	})
	t.Run("corrupt-digest", func(t *testing.T) {
		req := &api.SolveRequest{
			Rows: 2, Cols: 2, Mask: "W",
			Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}},
		}
		frame := frameRequest(t, req)
		frame[len(frame)-1] ^= 0x40
		checkInvalid(t, frame)
	})
	t.Run("cells-in-header-and-section", func(t *testing.T) {
		// Hand-build a frame whose header keeps inline cells AND whose
		// cell section carries a payload: ambiguous, must be rejected.
		req := &api.SolveRequest{
			Rows: 2, Cols: 2, Mask: "W",
			Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: [][]int64{{1, 2}, {3, 4}}},
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.Header(req); err != nil {
			t.Fatal(err)
		}
		if err := enc.Cells([]int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		checkInvalid(t, buf.Bytes())
	})

	if stats := srv.WireStats(); stats.BinaryRejects < 5 {
		t.Errorf("binary rejects = %d, want at least 5", stats.BinaryRejects)
	}
}

// TestRetiredChunkFieldIsInvalid: the wire chunk field is retired, so a
// request that still carries it is refused like any other unknown field,
// 400 invalid, through a JSON body and through a binary frame header,
// on the solve and the band endpoint alike.
func TestRetiredChunkFieldIsInvalid(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 2})
	docs := map[string]map[string]any{
		"/v1/solve": {
			"rows": 4, "cols": 4, "mask": "W,N",
			"workload": map[string]any{"kind": "mix", "seed": 1}, "chunk": 128,
		},
		"/v1/band/solve": {
			"rows": 4, "cols": 4, "row0": 0, "row1": 4, "col0": 0, "col1": 4, "mask": "W,N",
			"workload": map[string]any{"kind": "mix", "seed": 1}, "chunk": 128,
		},
	}
	for path, doc := range docs {
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		enc := wire.NewEncoder(&frame)
		if err := enc.Header(doc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		for codec, req := range map[string]struct {
			contentType string
			body        []byte
		}{"json": {"application/json", body}, "binary": {wire.MediaType, frame.Bytes()}} {
			t.Run(path+"/"+codec, func(t *testing.T) {
				hresp, err := http.Post(ts.URL+path, req.contentType, bytes.NewReader(req.body))
				if err != nil {
					t.Fatal(err)
				}
				defer hresp.Body.Close()
				if hresp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", hresp.StatusCode)
				}
				var out api.ErrorBody
				if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
					t.Fatalf("error body does not decode: %v", err)
				}
				if out.Status != "invalid" || !strings.Contains(out.Error, `unknown field "chunk"`) {
					t.Fatalf("error body = %+v, want status invalid naming the unknown chunk field", out)
				}
			})
		}
	}
}
