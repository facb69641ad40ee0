package client

import (
	"context"
	"fmt"
	"net/http"

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
		resp, err = decodeBand(hresp, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeBand decodes a 200 band response to req, refusing a response
// for any other block and one whose cells do not fill the block.
func decodeBand(hresp *http.Response, req *api.BandRequest) (*api.BandResponse, error) {
	out := new(api.BandResponse)
	bRows, bCols := req.Row1-req.Row0, req.Col1-req.Col0
	checkBlock := func() error {
		if out.Row0 != req.Row0 || out.Row1 != req.Row1 || out.Col0 != req.Col0 || out.Col1 != req.Col1 {
			return fmt.Errorf("%w: band response for rows [%d,%d) x cols [%d,%d), requested rows [%d,%d) x cols [%d,%d)",
				ErrMismatch, out.Row0, out.Row1, out.Col0, out.Col1, req.Row0, req.Row1, req.Col0, req.Col1)
		}
		return nil
	}
	err := decodeResult(hresp, out, &out.Cells, bRows, bCols, checkBlock)
	if err == nil {
		// decodeResult checks only a frame's header; a JSON body is
		// checked here.
		err = checkBlock()
	}
	if err != nil {
		return nil, err
	}
	if len(out.Cells) != bRows {
		return nil, fmt.Errorf("lddp client: band response carries %d rows for a %dx%d block", len(out.Cells), bRows, bCols)
	}
	for _, row := range out.Cells {
		if len(row) != bCols {
			return nil, fmt.Errorf("lddp client: band response carries a %d-cell row for a %dx%d block", len(row), bRows, bCols)
		}
	}
	return out, nil
}
