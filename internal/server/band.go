package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// ParseBandRequest decodes one POST /v1/band/solve JSON body with the
// same strictness as ParseSolveRequest.
func ParseBandRequest(r io.Reader) (*api.BandRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req api.BandRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding band request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("band request body holds more than one JSON document")
	}
	return &req, nil
}

// ParseBinaryBandRequest decodes one wire-frame band request: the frame
// header is the BandRequest JSON document with the halo arrays omitted,
// and the halos travel as tagged halo sections (wire.SectionNorth/West/
// East). The cell section must be empty — band workloads are
// regenerated from the seed, never shipped inline. maxHaloCells caps
// the summed section lengths.
func ParseBinaryBandRequest(r io.Reader, maxHaloCells int) (*api.BandRequest, error) {
	d := wire.NewDecoder(r)
	defer d.Release()
	d.SetMaxHeaderBytes(1 << 20)
	d.SetMaxCells(int64(maxHaloCells))
	hdr, err := d.Header()
	if err != nil {
		return nil, fmt.Errorf("decoding band frame: %w", err)
	}
	req := new(api.BandRequest)
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("decoding band frame header: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("band frame header holds more than one JSON document")
	}
	cells, err := d.Cells(nil)
	if err != nil {
		return nil, fmt.Errorf("decoding band frame cells: %w", err)
	}
	if len(cells) != 0 {
		return nil, fmt.Errorf("band frame carries %d inline cells; band workloads are seed-generated", len(cells))
	}
	for {
		tag, halo, err := d.Section(nil)
		if err != nil {
			return nil, fmt.Errorf("decoding band frame halo section: %w", err)
		}
		if tag == 0 {
			break
		}
		switch tag {
		case wire.SectionNorth:
			if req.HaloNorth != nil {
				return nil, fmt.Errorf("band frame repeats the north halo section")
			}
			req.HaloNorth = halo
		case wire.SectionWest:
			if req.HaloWest != nil {
				return nil, fmt.Errorf("band frame repeats the west halo section")
			}
			req.HaloWest = halo
		case wire.SectionEast:
			if req.HaloEast != nil {
				return nil, fmt.Errorf("band frame repeats the east halo section")
			}
			req.HaloEast = halo
		default:
			return nil, fmt.Errorf("band frame holds unknown halo section tag %d", tag)
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("verifying band frame: %w", err)
	}
	return req, nil
}

// ValidateBandRequest checks a band request against the server's caps
// and the exact halo coverage api.HaloSpec demands for the resolved
// mask, returning that mask. A halo of the wrong length is refused
// outright — padding or clipping it server-side would silently solve a
// different block.
func (s *Server) ValidateBandRequest(req *api.BandRequest) (lddp.DepMask, error) {
	if req.Rows <= 0 || req.Cols <= 0 {
		return 0, fmt.Errorf("table size %dx%d invalid: rows and cols must be positive", req.Rows, req.Cols)
	}
	if tooManyCells(req.Rows, req.Cols, s.cfg.MaxCells) {
		return 0, fmt.Errorf("table size %dx%d exceeds the per-request cap of %d cells", req.Rows, req.Cols, s.cfg.MaxCells)
	}
	if req.Row0 < 0 || req.Row0 >= req.Row1 || req.Row1 > req.Rows ||
		req.Col0 < 0 || req.Col0 >= req.Col1 || req.Col1 > req.Cols {
		return 0, fmt.Errorf("block rows [%d,%d) x cols [%d,%d) outside the %dx%d table",
			req.Row0, req.Row1, req.Col0, req.Col1, req.Rows, req.Cols)
	}
	switch req.Strategy {
	case "", "auto", "parallel", "async":
	default:
		return 0, fmt.Errorf("unknown strategy %q (want auto, parallel or async)", req.Strategy)
	}
	switch req.Workload.Kind {
	case "", api.KindMix, api.KindServe, api.KindCost, api.KindAlign:
	default:
		return 0, fmt.Errorf("unknown workload kind %q (want mix, serve, cost or align)", req.Workload.Kind)
	}
	if req.Workload.Cells != nil {
		return 0, fmt.Errorf("inline cells are not valid in band requests; band workloads must be seed-generated")
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
		return 0, fmt.Errorf("deadline_ms %d outside [0, %d]", req.DeadlineMS, MaxDeadlineMS)
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

// BlockProblem wraps a full-table problem into the block a band request
// names: the recurrence is the base one shifted into block coordinates,
// and the boundary resolves across-block neighbour reads from the
// request's halos — north for row Row0-1 (including the NW/NE corner
// columns HaloSpec widened it by), west for column Col0-1, east for
// column Col1. Reads past the FULL table still go to the base
// workload's own boundary, so a block touching the table edge computes
// exactly what the unsharded solve would. A halo index outside its
// span (impossible for a validated request) reads zero rather than
// panicking a scheduler worker; the coordinator's digest differential
// catches the corruption.
func BlockProblem(base *lddp.Problem[int64], req *api.BandRequest, mask lddp.DepMask) *lddp.Problem[int64] {
	r0, c0 := req.Row0, req.Col0
	bRows, bCols := req.Row1-req.Row0, req.Col1-req.Col0
	north, west, east := req.HaloNorth, req.HaloWest, req.HaloEast
	northLo := req.NorthLo
	return &lddp.Problem[int64]{
		Name: fmt.Sprintf("%s-band-r%d-c%d", base.Name, r0, c0),
		Rows: bRows, Cols: bCols, Deps: mask,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			return base.F(i+r0, j+c0, nb)
		},
		Boundary: func(i, j int) int64 {
			gi, gj := i+r0, j+c0
			if gi < 0 || gi >= base.Rows || gj < 0 || gj >= base.Cols {
				if base.Boundary != nil {
					return base.Boundary(gi, gj)
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
		},
		BytesPerCell: base.BytesPerCell,
	}
}

// handleBandSolve runs one POST /v1/band/solve request: the fleet peer
// protocol's unit of work. It shares the solve path's limiter, codec
// negotiation and outcome-trichotomy status mapping, but never touches
// the result cache — a block's halos make it context-dependent, so
// caching would trade correctness for nothing.
func (s *Server) handleBandSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "invalid", 0, "POST required")
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", 0, "server is draining")
		return
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.writeError(w, http.StatusTooManyRequests, "rejected", 0,
			fmt.Sprintf("server at its in-flight limit (%d)", s.cfg.MaxInflight))
		return
	}
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		<-s.inflight
	}()
	if s.cfg.Hooks.OnSolveAdmitted != nil {
		s.cfg.Hooks.OnSolveAdmitted(true)
	}

	w = &countingResponseWriter{ResponseWriter: w, n: &s.wireStats.responseBytes}
	neg := negotiate(r)
	r.Body = &countingReader{
		r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		n: &s.wireStats.requestBytes,
	}
	var req *api.BandRequest
	var err error
	if neg.binaryRequest {
		s.wireStats.binaryRequests.Add(1)
		req, err = ParseBinaryBandRequest(r.Body, s.cfg.MaxInlineCells)
		if err != nil {
			s.wireStats.binaryRejects.Add(1)
		}
	} else {
		s.wireStats.jsonRequests.Add(1)
		req, err = ParseBandRequest(r.Body)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return
	}
	mask, err := s.ValidateBandRequest(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return
	}
	if n := len(req.HaloNorth) + len(req.HaloWest) + len(req.HaloEast); n > 0 {
		s.wireStats.haloValues.Add(int64(n))
		s.wireStats.haloBytes.Add(int64(n) * 8)
	}
	base, err := BuildProblem(&api.SolveRequest{
		Rows: req.Rows, Cols: req.Cols, Mask: req.Mask, Workload: req.Workload,
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return
	}
	block := BlockProblem(base, req, mask)

	start := time.Now()
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	opts := []lddp.Option{}
	switch req.Strategy {
	case "parallel":
		opts = append(opts, lddp.WithStrategy(lddp.Parallel))
	case "async":
		opts = append(opts, lddp.WithStrategy(lddp.Async))
	}
	var tracer *lddp.Tracer
	if s.cfg.TraceDir != "" {
		tracer = lddp.NewTracer()
		if req.Trace != nil {
			// The fleet tag rides every export of this trace, which is
			// what lets GET /v1/trace/{fleetID} and the coordinator's
			// stitcher attribute the block to its originating solve.
			tracer.SetFleetTag(req.Trace.FleetID, req.Trace.Band, req.Trace.Phase)
		}
		opts = append(opts, lddp.WithTracer(tracer))
	}
	sub, err := lddp.Submit(ctx, s.sched, block, opts...)
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	id := sub.ID()
	grid, err := sub.Wait()
	if tracer != nil {
		path := s.writeTraceFile(id, tracer)
		if path != "" && req.Trace != nil && s.traces != nil {
			s.traces.add(req.Trace.FleetID, blockRef{
				solveID: id, band: req.Trace.Band, phase: req.Trace.Phase, path: path,
			})
		}
	}
	if err != nil {
		s.writeOutcomeError(w, r, id, err)
		return
	}
	flat := grid.RowMajorData()
	resp := &api.BandResponse{
		ID: id, Status: "done",
		Row0: req.Row0, Row1: req.Row1, Col0: req.Col0, Col1: req.Col1,
		Mask:      mask.String(),
		Digest:    DigestCells(block.Rows, block.Cols, flat),
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	s.writeBandResponse(w, neg, resp, flat)
}

// writeBandResponse renders one completed band solve under the
// negotiated codec. The block's cells are always included — the
// coordinator needs every block to assemble the table — so the binary
// codec is strongly preferred for non-trivial bands.
func (s *Server) writeBandResponse(w http.ResponseWriter, neg negotiation, resp *api.BandResponse, flat []int64) {
	w.Header().Set(api.SolveIDHeader, fmt.Sprint(resp.ID))
	bRows, bCols := resp.Row1-resp.Row0, resp.Col1-resp.Col0
	if neg.binaryResponse {
		s.wireStats.binaryResponses.Add(1)
		w.Header().Set("Content-Type", wire.MediaType)
		enc := wire.NewEncoder(w)
		if len(flat) > wire.ChunkCells {
			if f, ok := w.(http.Flusher); ok {
				enc.SetFlush(f.Flush)
			}
		}
		hdr := *resp
		hdr.Cells = nil
		err := enc.Header(hdr)
		if err == nil {
			err = enc.Cells(flat)
		}
		if err != nil {
			enc.Abort()
			s.logf("band solve %d: writing binary response: %v", resp.ID, err)
			return
		}
		if err := enc.Close(); err != nil {
			s.logf("band solve %d: writing binary response: %v", resp.ID, err)
		}
		return
	}
	s.wireStats.jsonResponses.Add(1)
	rows := make([][]int64, bRows)
	for i := range rows {
		rows[i] = flat[i*bCols : (i+1)*bCols]
	}
	resp.Cells = rows
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("band solve %d: writing response: %v", resp.ID, err)
	}
}
