package server

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// ParseBandRequest decodes one POST /v1/band/solve JSON body with the
// same strictness as ParseSolveRequest.
func ParseBandRequest(r io.Reader) (*api.BandRequest, error) {
	req := new(api.BandRequest)
	if err := decodeStrict(r, req, "band request"); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseBinaryBandRequest decodes one wire-frame band request: the frame
// header is the BandRequest JSON document with the halo arrays omitted,
// and the halos travel as tagged halo sections (wire.SectionNorth/West/
// East). The cell section must be empty — band workloads are
// regenerated from the seed, never shipped inline. maxHaloCells caps
// the summed section lengths.
func ParseBinaryBandRequest(r io.Reader, maxHaloCells int) (*api.BandRequest, error) {
	req := new(api.BandRequest)
	cells, err := decodeFrame(r, maxHaloCells, "band request", req, nil, &[4]*[]int64{
		wire.SectionNorth: &req.HaloNorth, wire.SectionWest: &req.HaloWest, wire.SectionEast: &req.HaloEast,
	})
	if err == nil && len(cells) != 0 {
		err = fmt.Errorf("band frame carries %d inline cells; band workloads are seed-generated", len(cells))
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// tableRequest is the full-table solve a band request's block belongs
// to: the fields ValidateRequest checks and BuildProblem builds from.
func tableRequest(req *api.BandRequest) api.SolveRequest {
	return api.SolveRequest{
		Rows: req.Rows, Cols: req.Cols, Mask: req.Mask, Strategy: req.Strategy,
		Workload: req.Workload, DeadlineMS: req.DeadlineMS,
	}
}

// ValidateBandRequest checks a band request against the server's caps
// (through ValidateRequest, for the fields it shares with a solve) and
// the exact halo coverage api.HaloSpec demands for the resolved mask,
// returning that mask. A halo of the wrong length is refused outright —
// padding or clipping it server-side would silently solve a different
// block.
func (s *Server) ValidateBandRequest(req *api.BandRequest) (lddp.DepMask, error) {
	if req.Workload.Cells != nil {
		return 0, fmt.Errorf("inline cells are not valid in band requests; band workloads must be seed-generated")
	}
	table := tableRequest(req)
	if err := s.ValidateRequest(&table); err != nil {
		return 0, err
	}
	if req.Row0 < 0 || req.Row0 >= req.Row1 || req.Row1 > req.Rows ||
		req.Col0 < 0 || req.Col0 >= req.Col1 || req.Col1 > req.Cols {
		return 0, fmt.Errorf("block rows [%d,%d) x cols [%d,%d) outside the %dx%d table",
			req.Row0, req.Row1, req.Col0, req.Col1, req.Rows, req.Cols)
	}
	kind := req.Workload.Kind
	if kind == "" {
		kind = api.KindMix
	}
	mask, err := api.ResolveMask(kind, req.Mask)
	if err != nil {
		return 0, err
	}
	h := api.HaloSpec(mask, req.Rows, req.Cols, req.Row0, req.Row1, req.Col0, req.Col1)
	if len(req.HaloNorth) != h.NorthLen {
		return 0, fmt.Errorf("north halo has %d cells, mask %s needs %d", len(req.HaloNorth), mask, h.NorthLen)
	}
	if h.NorthLen > 0 && req.NorthLo != h.NorthLo {
		return 0, fmt.Errorf("north halo starts at column %d, mask %s needs %d", req.NorthLo, mask, h.NorthLo)
	}
	if len(req.HaloWest) != h.WestLen {
		return 0, fmt.Errorf("west halo has %d cells, mask %s needs %d", len(req.HaloWest), mask, h.WestLen)
	}
	if len(req.HaloEast) != h.EastLen {
		return 0, fmt.Errorf("east halo has %d cells, mask %s needs %d", len(req.HaloEast), mask, h.EastLen)
	}
	return mask, nil
}

// BlockProblem builds the block a validated band request names, in
// block coordinates: the workload's problem with its origin at (Row0,
// Col0) (see MixProblem), trimmed to the block, so F is the workload's
// own recurrence. Only the boundary is wrapped, and only edge cells call
// it. It resolves across-block neighbour reads from the request's halos
// — north for row Row0-1 (including the NW/NE corner columns HaloSpec
// widened it by), west for column Col0-1, east for column Col1. Reads
// past the FULL table still go to the workload's own boundary, so a
// block touching the table edge computes exactly what the unsharded
// solve would. A halo index outside its span (impossible for a
// validated request) reads zero rather than panicking a scheduler
// worker; the coordinator's digest differential catches the corruption.
func BlockProblem(req *api.BandRequest) (*lddp.Problem[int64], error) {
	table := tableRequest(req)
	p, err := buildProblem(&table, req.Row0, req.Row1, req.Col0)
	if err != nil {
		return nil, err
	}
	r0, c0 := req.Row0, req.Col0
	rows, cols := req.Rows, req.Cols
	bCols := req.Col1 - req.Col0
	north, west, east := req.HaloNorth, req.HaloWest, req.HaloEast
	northLo := req.NorthLo
	own := p.Boundary
	p.Name = fmt.Sprintf("%s-band-r%d-c%d", p.Name, r0, c0)
	p.Rows, p.Cols = req.Row1-r0, bCols
	p.Boundary = func(i, j int) int64 {
		gi, gj := i+r0, j+c0
		if gi < 0 || gi >= rows || gj < 0 || gj >= cols {
			if own != nil {
				return own(i, j)
			}
			return 0
		}
		switch {
		case i < 0:
			if k := gj - northLo; k >= 0 && k < len(north) {
				return north[k]
			}
		case j < 0:
			if i < len(west) {
				return west[i]
			}
		case j >= bCols:
			if i < len(east) {
				return east[i]
			}
		}
		return 0
	}
	return p, nil
}

// handleBandSolve runs one POST /v1/band/solve request, the fleet peer
// protocol's unit of work, through the solve pipeline. It never touches
// the result cache — a block's halos make it context-dependent, so
// caching would trade correctness for nothing — and every refusal
// before the run, the cell cap included, is a 400. The block is
// computed into a pooled buffer (wire.GetCells), which goes back to the
// pool once the response is written; a run that fails keeps it out of
// the pool for good, like the inline cells of a failed /v1/solve. A
// traced block's response carries its trace (blockTrace).
func (s *Server) handleBandSolve(w http.ResponseWriter, r *http.Request) {
	w, neg, ok := s.admit(w, r, true)
	if !ok {
		return
	}
	defer s.release()
	var req *api.BandRequest
	var err error
	if neg.binaryRequest {
		req, err = ParseBinaryBandRequest(r.Body, s.cfg.MaxInlineCells)
	} else {
		req, err = ParseBandRequest(r.Body)
	}
	var mask lddp.DepMask
	if err = s.countRequest(neg.binaryRequest, err); err == nil {
		mask, err = s.ValidateBandRequest(req)
	}
	var block *lddp.Problem[int64]
	if err == nil {
		block, err = BlockProblem(req)
	}
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return
	}
	if n := len(req.HaloNorth) + len(req.HaloWest) + len(req.HaloEast); n > 0 {
		s.wireStats.haloValues.Add(int64(n))
		s.wireStats.haloBytes.Add(int64(n) * 8)
	}
	start := time.Now()
	n := block.Rows * block.Cols
	tracer := s.tracer(req.Trace)
	id, flat, ok := s.run(w, r, block, req.Strategy, req.DeadlineMS, tracer, wire.GetCells(n)[:n])
	if !ok {
		return
	}
	defer wire.PutCells(flat)
	// The block's cells are always included — the coordinator needs
	// every block to assemble the table — so the binary codec is
	// strongly preferred for non-trivial bands.
	resp := &api.BandResponse{
		ID: id, Status: "done",
		Row0: req.Row0, Row1: req.Row1, Col0: req.Col0, Col1: req.Col1,
		Mask:      mask.String(),
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if tracer != nil && req.Trace != nil {
		resp.Trace = blockTrace(id, req.Trace, tracer)
	}
	s.writeResult(w, neg, id, resp, &resp.Cells, flat, block.Cols)
}

// maxBlockTraceBytes bounds the JSON of the trace a band response
// carries. A frame's header is the whole response document, and the
// client's decoder refuses a header past wire.MaxHeaderBytes; the rest
// of the document takes a few hundred bytes.
const maxBlockTraceBytes = wire.MaxHeaderBytes - 4<<10

// blockTrace is a finished band solve's trace as its response carries
// it: the tracer's meta (fleet tags, epoch, ring drops) and its newest
// events up to maxBlockTraceBytes, so a large trace never fails the
// block it describes. The node's trace file keeps them all.
func blockTrace(id int64, tag *api.TraceContext, tracer *lddp.Tracer) *trace.BlockTrace {
	meta := tracer.Meta()
	meta.Dropped = tracer.Dropped()
	bt := &trace.BlockTrace{SolveID: id, Band: tag.Band, Phase: tag.Phase, Meta: meta, Events: tracer.Events()}
	bt.Fit(maxBlockTraceBytes)
	return bt
}
