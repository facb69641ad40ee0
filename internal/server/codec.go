package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/wire"
	"repro/lddp/api"
)

// negotiation is the per-request codec decision, read once from the
// request headers before the body is touched.
type negotiation struct {
	// binaryRequest: the body is a wire frame (Content-Type matched
	// wire.MediaType). Anything else is decoded as JSON, the default.
	binaryRequest bool
	// binaryResponse: the Accept list offered wire.MediaType, so the 200
	// body is a frame. Error bodies stay JSON either way — a failure
	// must be readable with curl.
	binaryResponse bool
	// noCache skips the result-cache lookup (Cache-Control: no-cache);
	// noStore additionally skips the insert (no-store implies both).
	noCache bool
	noStore bool
}

// negotiate reads the codec and cache headers. Negotiation is
// deliberately simple: exact media-type tokens, no q-values — the only
// two parties are this server and lddp/client, and JSON stays the
// default for everything else (curl, proxies, old clients).
func negotiate(r *http.Request) negotiation {
	var n negotiation
	n.binaryRequest = mediaTypeIs(r.Header.Get("Content-Type"), wire.MediaType)
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaTypeIs(part, wire.MediaType) {
			n.binaryResponse = true
			break
		}
	}
	for _, part := range strings.Split(r.Header.Get("Cache-Control"), ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "no-cache":
			n.noCache = true
		case "no-store":
			n.noCache = true
			n.noStore = true
		}
	}
	return n
}

// mediaTypeIs reports whether the media type of a Content-Type/Accept
// element (parameters stripped) equals want, case-insensitively.
func mediaTypeIs(v, want string) bool {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.EqualFold(strings.TrimSpace(v), want)
}

// CacheHeader is the response header reporting the result-cache outcome
// of a 200: "hit", "miss", or "bypass" (lookup skipped on request).
const CacheHeader = api.CacheHeader

// ParseBinaryRequest decodes one wire-frame solve request body. The
// frame header is the SolveRequest JSON document (same strictness as
// the JSON codec: unknown fields are rejected) and the cell section
// carries the inline cost payload, row-major. maxInline caps the cell
// count. The returned release func returns the pooled cell buffer; it
// must be called exactly once, only after nothing references the
// request's inline cells anymore (after the solve completes), and never
// on paths where the solve may still be running.
func ParseBinaryRequest(r io.Reader, maxInline int) (req *api.SolveRequest, release func(), err error) {
	d := wire.NewDecoder(r)
	defer d.Release()
	d.SetMaxHeaderBytes(1 << 20)
	d.SetMaxCells(int64(maxInline))
	hdr, err := d.Header()
	if err != nil {
		return nil, nil, fmt.Errorf("decoding request frame: %w", err)
	}
	req = new(api.SolveRequest)
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, nil, fmt.Errorf("decoding request header: %w", err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("request header holds more than one JSON document")
	}
	flat, err := d.Cells(wire.GetCells(0))
	if err != nil {
		wire.PutCells(flat)
		return nil, nil, fmt.Errorf("decoding request cells: %w", err)
	}
	if err := d.Close(); err != nil {
		wire.PutCells(flat)
		return nil, nil, fmt.Errorf("verifying request frame: %w", err)
	}
	if len(flat) == 0 {
		wire.PutCells(flat)
		return req, func() {}, nil
	}
	if req.Workload.Cells != nil {
		wire.PutCells(flat)
		return nil, nil, fmt.Errorf("request carries cells both in the frame header and the cell section")
	}
	// Divide rather than multiply: the product of two huge sides wraps,
	// and a wrapped product can equal the cell count.
	if req.Rows <= 0 || req.Cols <= 0 || len(flat)%req.Cols != 0 || len(flat)/req.Cols != req.Rows {
		wire.PutCells(flat)
		return nil, nil, fmt.Errorf("frame carries %d cells for a %dx%d request", len(flat), req.Rows, req.Cols)
	}
	cells := make([][]int64, req.Rows)
	for i := range cells {
		cells[i] = flat[i*req.Cols : (i+1)*req.Cols]
	}
	req.Workload.Cells = cells
	return req, func() { wire.PutCells(flat) }, nil
}

// writeSolveResponse renders one successful solve under the negotiated
// codec. flat is the row-major result table (may outlive the call when
// it is a cache entry's payload — the writers only read it); cells are
// included only when the request asked and the table is under the
// response cap. Write failures after the status line can only be logged
// and the response aborted — the client is gone or the connection is
// broken, and a half-written body must not be "repaired" with more
// writes.
func (s *Server) writeSolveResponse(w http.ResponseWriter, neg negotiation, resp *api.SolveResponse, flat []int64, includeCells bool) {
	w.Header().Set(api.SolveIDHeader, fmt.Sprint(resp.ID))
	if neg.binaryResponse {
		s.wireStats.binaryResponses.Add(1)
		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		if includeCells && len(flat) > wire.ChunkCells {
			if f, ok := w.(http.Flusher); ok {
				enc.SetFlush(f.Flush)
			}
		}
		// The frame header is the response document minus the cell
		// payload; cells travel in the chunked cell section.
		hdr := *resp
		hdr.Cells = nil
		err := enc.Header(hdr)
		if err == nil && includeCells {
			err = enc.Cells(flat)
		}
		if err != nil {
			// A failed or half-written frame must not be capped with an
			// end marker + trailer — the client would read the stray bytes
			// as a bogus frame instead of a truncated one.
			enc.Abort()
			s.logf("solve %d: writing binary response: %v", resp.ID, err)
			return
		}
		if err := enc.Close(); err != nil {
			s.logf("solve %d: writing binary response: %v", resp.ID, err)
		}
		return
	}
	s.wireStats.jsonResponses.Add(1)
	if includeCells {
		// Row headers over the flat payload: one allocation instead of
		// rows+1 copies — json.Encoder reads them synchronously, so
		// aliasing the (immutable) result is safe.
		rows := make([][]int64, resp.Rows)
		for i := range rows {
			rows[i] = flat[i*resp.Cols : (i+1)*resp.Cols]
		}
		resp.Cells = rows
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("solve %d: writing response: %v", resp.ID, err)
	}
}
