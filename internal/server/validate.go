package server

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/lddp/api"
)

// Request validation ceilings. They are service-protection bounds, not
// tuning knobs: a request past them is refused with 400/413, never
// clamped, so the caller learns about the mistake instead of silently
// getting a different solve.
const (
	// DefaultMaxCells caps Rows*Cols per request (a 2048x2048 table).
	DefaultMaxCells = 1 << 22
	// DefaultMaxInlineCells caps the inline cost payload (a 256x256
	// table) — inline cells travel as JSON, so they must stay small.
	DefaultMaxInlineCells = 1 << 16
	// DefaultMaxResponseCells caps the cells echoed back for
	// ReturnCells requests; larger tables return the digest alone.
	DefaultMaxResponseCells = 1 << 16
	// DefaultMaxBodyBytes caps the request body read from the wire.
	DefaultMaxBodyBytes = 16 << 20
	// MaxDeadlineMS caps the per-request deadline (10 minutes); beyond
	// it a deadline is a configuration mistake.
	MaxDeadlineMS = 10 * 60 * 1000
)

// ParseSolveRequest decodes one POST /v1/solve body. Unknown fields are
// rejected — a misspelled knob silently ignored would run the wrong
// solve. The returned error is always a client error (400 material).
func ParseSolveRequest(r io.Reader) (*api.SolveRequest, error) {
	req := new(api.SolveRequest)
	if err := decodeStrict(r, req, "request"); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeStrict decodes exactly one JSON document into v: the one JSON
// decoder of every request body and frame header. Unknown fields are
// refused, and a second document is a framing error, not trailing noise
// to ignore.
func decodeStrict(r io.Reader, v any, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("%s holds more than one JSON document", what)
	}
	return nil
}

// ValidateRequest checks a decoded request against the server's caps.
// A nil error guarantees BuildProblem accepts the request (up to the
// mask/kind cross-checks BuildProblem itself reports).
func (s *Server) ValidateRequest(req *api.SolveRequest) error {
	if req.Rows <= 0 || req.Cols <= 0 {
		return fmt.Errorf("table size %dx%d invalid: rows and cols must be positive", req.Rows, req.Cols)
	}
	if tooManyCells(req.Rows, req.Cols, s.cfg.MaxCells) {
		return fmt.Errorf("table size %dx%d exceeds the per-request cap of %d cells", req.Rows, req.Cols, s.cfg.MaxCells)
	}
	cells := int64(req.Rows) * int64(req.Cols)
	switch req.Strategy {
	case "", "auto", "parallel", "async":
	default:
		return fmt.Errorf("unknown strategy %q (want auto, parallel or async)", req.Strategy)
	}
	switch req.Workload.Kind {
	case "", api.KindMix, api.KindServe, api.KindCost, api.KindAlign:
	default:
		return fmt.Errorf("unknown workload kind %q (want mix, serve, cost or align)", req.Workload.Kind)
	}
	if req.Workload.Cells != nil {
		if req.Workload.Kind != api.KindCost {
			return fmt.Errorf("inline cells are only valid with the cost workload kind")
		}
		if cells > int64(s.cfg.MaxInlineCells) {
			return fmt.Errorf("inline cost payload %dx%d exceeds the cap of %d cells", req.Rows, req.Cols, s.cfg.MaxInlineCells)
		}
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
		return fmt.Errorf("deadline_ms %d outside [0, %d]", req.DeadlineMS, MaxDeadlineMS)
	}
	return nil
}

// tooManyCells reports whether a table of positive sides rows and cols
// holds more than maxCells cells. It divides rather than multiplies: the
// int64 product of two sides past 2^31.5 wraps, and a wrapped product
// would pass the cap.
func tooManyCells(rows, cols int, maxCells int64) bool {
	return int64(rows) > maxCells/int64(cols)
}
