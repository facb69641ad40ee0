package client

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/wire"
	"repro/lddp/api"
)

// BlockDest resolves where a band response's cells land: cells holds the
// block's first cell at index 0, and row i of the block starts at index
// i*stride (stride >= the block's column count). A caller assembling a
// table passes the block's corner of it and the table's row length.
// SolveBand calls it only for a response whose header names the
// requested block, so the destination need not exist when the request
// goes out.
type BlockDest func() (cells []int64, stride int)

// SolveBand submits one band solve (POST /v1/band/solve) and lands the
// block's cells in the rectangle dst resolves: a frame's cells are
// decoded straight into it, and a JSON body's rows are copied there.
// The returned response carries no Cells; a tracing node's carries the
// block's trace. A frame's cells land before
// its trailer is verified, so after an error the rectangle holds
// unverified cells: a caller reads it only after SolveBand returns nil.
// Retry semantics match Solve: 429/503 and transport errors retry
// under the client's policy, everything else returns a typed error
// immediately. The fleet coordinator layers node relocation on top of
// this — a SolveBand that exhausts its retry budget against one node is
// the signal to try the next.
func (c *Client) SolveBand(ctx context.Context, req *api.BandRequest, dst BlockDest) (*api.BandResponse, error) {
	if req == nil || dst == nil {
		return nil, fmt.Errorf("lddp client: nil band request or destination")
	}
	buf, err := c.encode(req, func() any {
		// The frame header omits the halos, which travel as tagged halo
		// sections.
		hdr := *req
		hdr.HaloNorth, hdr.HaloWest, hdr.HaloEast = nil, nil, nil
		return &hdr
	}, nil, &[4][]int64{
		wire.SectionNorth: req.HaloNorth, wire.SectionWest: req.HaloWest, wire.SectionEast: req.HaloEast,
	})
	if err != nil {
		return nil, err
	}
	var resp *api.BandResponse
	err = c.post(ctx, "/v1/band/solve", "", buf, func(hresp *http.Response) (err error) {
		resp, err = decodeBand(hresp, req, dst)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeBand decodes a 200 band response to req into dst's rectangle,
// refusing a response for any other block, before any cell lands, and
// one whose cells do not fill the block.
func decodeBand(hresp *http.Response, req *api.BandRequest, dst BlockDest) (*api.BandResponse, error) {
	out := new(api.BandResponse)
	bRows, bCols := req.Row1-req.Row0, req.Col1-req.Col0
	checkBlock := func() error {
		if out.Row0 != req.Row0 || out.Row1 != req.Row1 || out.Col0 != req.Col0 || out.Col1 != req.Col1 {
			return fmt.Errorf("%w: band response for rows [%d,%d) x cols [%d,%d), requested rows [%d,%d) x cols [%d,%d)",
				ErrMismatch, out.Row0, out.Row1, out.Col0, out.Col1, req.Row0, req.Row1, req.Col0, req.Col1)
		}
		return nil
	}
	landed := 0
	frame, err := decodeResult(hresp, out, checkBlock, func(d *wire.Decoder) (err error) {
		cells, stride := dst()
		landed, err = d.CellsInto(cells, bRows, bCols, stride)
		return err
	})
	if err == nil && !frame {
		// decodeResult checks only a frame's header; a JSON body is
		// checked here, and copied into the rectangle once it fills the
		// block.
		if err = checkBlock(); err == nil {
			landed, err = landRows(out.Cells, bRows, bCols, dst)
		}
		out.Cells = nil
	}
	if err != nil {
		return nil, err
	}
	if landed != bRows*bCols {
		return nil, fmt.Errorf("lddp client: band response carries %d cells for a %dx%d block", landed, bRows, bCols)
	}
	return out, nil
}

// landRows copies a JSON band response's rows into dst's rectangle,
// refusing rows that do not fill a rows x cols block.
func landRows(src [][]int64, rows, cols int, dst BlockDest) (int, error) {
	if len(src) != rows {
		return 0, fmt.Errorf("lddp client: band response carries %d rows for a %dx%d block", len(src), rows, cols)
	}
	for _, row := range src {
		if len(row) != cols {
			return 0, fmt.Errorf("lddp client: band response carries a %d-cell row for a %dx%d block", len(row), rows, cols)
		}
	}
	cells, stride := dst()
	if stride < cols || len(cells) < (rows-1)*stride+cols {
		return 0, fmt.Errorf("lddp client: a %dx%d block at row stride %d does not fit %d cells", rows, cols, stride, len(cells))
	}
	for i, row := range src {
		copy(cells[i*stride:i*stride+cols], row)
	}
	return rows * cols, nil
}
