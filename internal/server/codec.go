package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
	req = new(api.SolveRequest)
	flat, err := decodeFrame(r, maxInline, "request", req, wire.GetCells(0), nil)
	switch {
	case err != nil:
	case len(flat) == 0:
		wire.PutCells(flat)
		return req, func() {}, nil
	case req.Workload.Cells != nil:
		err = fmt.Errorf("request carries cells both in the frame header and the cell section")
	// Divide rather than multiply: the product of two huge sides wraps,
	// and a wrapped product can equal the cell count.
	case req.Rows <= 0 || req.Cols <= 0 || len(flat)%req.Cols != 0 || len(flat)/req.Cols != req.Rows:
		err = fmt.Errorf("frame carries %d cells for a %dx%d request", len(flat), req.Rows, req.Cols)
	default:
		req.Workload.Cells = rowsOf(flat, req.Cols)
		return req, func() { wire.PutCells(flat) }, nil
	}
	wire.PutCells(flat)
	return nil, nil, err
}

// decodeFrame decodes one request frame: the header, strictly, into
// hdr; the cell section onto cells; and, for a band request, the tagged
// halo sections a band frame always carries, each into the request
// field halos holds at its tag. maxCells caps every cell the frame
// holds. The returned cells are the caller's even on error.
func decodeFrame(r io.Reader, maxCells int, what string, hdr any, cells []int64, halos *[4]*[]int64) ([]int64, error) {
	d := wire.NewDecoder(r)
	defer d.Release()
	d.SetMaxHeaderBytes(1 << 20)
	d.SetMaxCells(int64(maxCells))
	raw, err := d.Header()
	if err != nil {
		return cells, fmt.Errorf("decoding %s frame: %w", what, err)
	}
	if err := decodeStrict(bytes.NewReader(raw), hdr, what); err != nil {
		return cells, err
	}
	if cells, err = d.Cells(cells); err != nil {
		return cells, fmt.Errorf("decoding %s frame cells: %w", what, err)
	}
	for halos != nil {
		tag, halo, err := d.Section(nil)
		switch {
		case err != nil:
			return cells, fmt.Errorf("decoding %s frame halo section: %w", what, err)
		case tag == 0:
			halos = nil
		case tag >= uint64(len(halos)) || halos[tag] == nil:
			return cells, fmt.Errorf("%s frame holds unknown halo section tag %d", what, tag)
		case *halos[tag] != nil:
			return cells, fmt.Errorf("%s frame repeats halo section tag %d", what, tag)
		default:
			*halos[tag] = halo
		}
	}
	if err := d.Close(); err != nil {
		return cells, fmt.Errorf("verifying %s frame: %w", what, err)
	}
	return cells, nil
}

// rowsOf returns row headers over a row-major table of the given column
// count: one allocation instead of a copy per row.
func rowsOf(flat []int64, cols int) [][]int64 {
	rows := make([][]int64, len(flat)/cols)
	for i := range rows {
		rows[i] = flat[i*cols : (i+1)*cols]
	}
	return rows
}

// writeResult renders one completed solve or band solve under the
// negotiated codec. doc is the response document with its Cells field
// (which cells points at) empty: a frame header is the document as is
// and the frame's cell section carries flat, while JSON fills the Cells
// field with rows of cols over flat. flat is nil when the response
// carries no cells, and may be a cache entry's payload — the writer
// only reads it. Write failures after the status line can only be
// logged and the response aborted — the client is gone or the
// connection is broken, and a half-written body must not be "repaired"
// with more writes.
func (s *Server) writeResult(w http.ResponseWriter, neg negotiation, id int64, doc any, cells *[][]int64, flat []int64, cols int) {
	w.Header().Set(api.SolveIDHeader, strconv.FormatInt(id, 10))
	var err error
	if neg.binaryResponse {
		s.wireStats.binaryResponses.Add(1)
		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		if len(flat) > wire.ChunkCells {
			if f, ok := w.(http.Flusher); ok {
				enc.SetFlush(f.Flush)
			}
		}
		if err = enc.Header(doc); err == nil {
			err = enc.Cells(flat)
		}
		if err == nil {
			err = enc.Close()
		} else {
			// A failed or half-written frame must not be capped with an
			// end marker + trailer — the client would read the stray bytes
			// as a bogus frame instead of a truncated one.
			enc.Abort()
		}
	} else {
		s.wireStats.jsonResponses.Add(1)
		if flat != nil {
			// json.Encoder reads the row headers synchronously, so aliasing
			// the (immutable) result is safe.
			*cells = rowsOf(flat, cols)
		}
		w.Header().Set("Content-Type", "application/json")
		err = json.NewEncoder(w).Encode(doc)
	}
	if err != nil {
		s.logf("solve %d: writing response: %v", id, err)
	}
}
