package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
	"repro/lddp/api"
)

// SolveBand submits one band solve (POST /v1/band/solve) and returns
// the decoded block. Retry semantics match Solve: 429/503 and transport
// errors retry under the client's policy, everything else returns a
// typed error immediately. The fleet coordinator layers node relocation
// on top of this — a SolveBand that exhausts its retry budget against
// one node is the signal to try the next.
func (c *Client) SolveBand(ctx context.Context, req *api.BandRequest) (*api.BandResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("lddp client: nil band request")
	}
	buf, err := c.encodeBandRequest(req)
	if err != nil {
		return nil, err
	}
	body := newPooledBody(buf)
	defer body.release()
	var last error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			var apiErr *APIError
			if errors.As(last, &apiErr) {
				retryAfter = apiErr.RetryAfter
			}
			d := backoffDelay(c.policy, attempt-1, retryAfter, c.rnd())
			if err := c.sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		resp, err := c.trySolveBand(ctx, req, body)
		if err == nil {
			return resp, nil
		}
		last = err
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.retryable() {
			return nil, err
		}
		if errors.Is(err, ErrWireVersion) || errors.Is(err, ErrMismatch) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, last
		}
	}
	return nil, last
}

// encodeBandRequest renders req under the client's codec into a pooled
// buffer. The binary frame's header is the request document minus the
// halo arrays, which travel as tagged halo sections.
func (c *Client) encodeBandRequest(req *api.BandRequest) (*bytes.Buffer, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if c.codec != CodecBinary {
		if err := json.NewEncoder(buf).Encode(req); err != nil {
			encodeBufPool.Put(buf)
			return nil, fmt.Errorf("lddp client: encoding band request: %w", err)
		}
		return buf, nil
	}
	hdr := *req
	hdr.HaloNorth, hdr.HaloWest, hdr.HaloEast = nil, nil, nil
	enc := wire.NewEncoder(buf)
	err := enc.Header(&hdr)
	if err == nil {
		// Band frames always carry a section list, even an empty one —
		// the server drains it unconditionally.
		err = enc.BeginSections()
	}
	for _, s := range []struct {
		tag   uint64
		cells []int64
	}{
		{wire.SectionNorth, req.HaloNorth},
		{wire.SectionWest, req.HaloWest},
		{wire.SectionEast, req.HaloEast},
	} {
		if err == nil && len(s.cells) > 0 {
			err = enc.Section(s.tag, s.cells)
		}
	}
	if err != nil {
		enc.Abort()
		encodeBufPool.Put(buf)
		return nil, fmt.Errorf("lddp client: encoding band frame: %w", err)
	}
	if err := enc.Close(); err != nil {
		encodeBufPool.Put(buf)
		return nil, fmt.Errorf("lddp client: encoding band frame: %w", err)
	}
	return buf, nil
}

// trySolveBand performs one POST /v1/band/solve round trip of req,
// encoded in body, refusing a response for any other block.
func (c *Client) trySolveBand(ctx context.Context, req *api.BandRequest, body *pooledBody) (*api.BandResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/band/solve", nil)
	if err != nil {
		return nil, err
	}
	hreq.Body = body.reader()
	hreq.ContentLength = int64(body.len())
	hreq.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	hreq.Header.Set("Content-Type", c.contentType())
	hreq.Header.Set("Accept", c.accept())
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("lddp client: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeError(hresp)
	}
	if responseIsBinary(hresp) {
		return decodeBinaryBandResponse(hresp, req)
	}
	var out api.BandResponse
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 64<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("lddp client: decoding band response: %w", err)
	}
	if err := checkBlock(&out, req); err != nil {
		return nil, err
	}
	bRows, bCols := req.Row1-req.Row0, req.Col1-req.Col0
	if len(out.Cells) != bRows {
		return nil, fmt.Errorf("lddp client: band response carries %d rows for a %dx%d block", len(out.Cells), bRows, bCols)
	}
	for _, row := range out.Cells {
		if len(row) != bCols {
			return nil, fmt.Errorf("lddp client: band response carries a %d-cell row for a %dx%d block", len(row), bRows, bCols)
		}
	}
	return &out, nil
}

// checkBlock refuses a band response for any block but the requested one.
func checkBlock(out *api.BandResponse, req *api.BandRequest) error {
	if out.Row0 != req.Row0 || out.Row1 != req.Row1 || out.Col0 != req.Col0 || out.Col1 != req.Col1 {
		return fmt.Errorf("%w: band response for rows [%d,%d) x cols [%d,%d), requested rows [%d,%d) x cols [%d,%d)",
			ErrMismatch, out.Row0, out.Row1, out.Col0, out.Col1, req.Row0, req.Row1, req.Col0, req.Col1)
	}
	return nil
}

// decodeBinaryBandResponse decodes a 200 wire-frame band response to
// req: the header is the BandResponse document and the cell section
// carries the solved block, row-major. The block lands in one buffer
// sized from the request's own block extent, which the client can trust
// unlike the response header.
func decodeBinaryBandResponse(hresp *http.Response, req *api.BandRequest) (*api.BandResponse, error) {
	d := wire.NewDecoder(io.LimitReader(hresp.Body, 64<<20))
	defer d.Release()
	hdr, err := d.Header()
	if err != nil {
		if errors.Is(err, wire.ErrVersion) {
			return nil, fmt.Errorf("%w: %v", ErrWireVersion, err)
		}
		return nil, fmt.Errorf("lddp client: decoding band frame: %w", err)
	}
	var out api.BandResponse
	if err := json.Unmarshal(hdr, &out); err != nil {
		return nil, fmt.Errorf("lddp client: decoding band frame header: %w", err)
	}
	if err := checkBlock(&out, req); err != nil {
		return nil, err
	}
	bRows, bCols := req.Row1-req.Row0, req.Col1-req.Col0
	flat, err := d.CellsSized(bRows * bCols)
	if err != nil {
		return nil, fmt.Errorf("lddp client: decoding band frame cells: %w", err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("lddp client: verifying band frame: %w", err)
	}
	if bRows <= 0 || bCols <= 0 || bRows*bCols != len(flat) {
		return nil, fmt.Errorf("lddp client: band frame carries %d cells for a %dx%d block", len(flat), bRows, bCols)
	}
	out.Cells = make([][]int64, bRows)
	for i := range out.Cells {
		out.Cells[i] = flat[i*bCols : (i+1)*bCols]
	}
	return &out, nil
}
