package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"

	"repro/internal/server"
	"repro/lddp/api"
	"repro/lddp/client"
)

// Response headers of POST /v1/fleet/solve reporting the executed plan;
// the body stays a plain api.SolveResponse so any solve client can read
// a fleet answer.
const (
	// BandsHeader reports the number of row bands the solve ran with.
	BandsHeader = "X-Lddp-Fleet-Bands"
	// RelocationsHeader reports how many blocks were moved to another
	// node after a failure.
	RelocationsHeader = "X-Lddp-Fleet-Relocations"
)

// NewHandler returns the POST /v1/fleet/solve handler: coord behind
// node's request pipeline (server.Admit), which admits, decodes and
// validates the body as a standard SolveRequest before any block is
// planned, and holds one of node's in-flight slots for the whole fleet
// solve. The 200 body is a standard SolveResponse whose digest is the
// assembled-table digest — directly comparable to a single-node solve
// of the same request — and whose id, echoed in X-Lddp-Solve-Id, is the
// fleet solve's sequence number (Result.ID). Errors go through node's
// error writer, so a 503 carries node's Retry-After like every other
// refusal. cmd/lddpd mounts it beside the node mux when -peers is set,
// which keeps the coordinator layered strictly above the node service:
// the server package never learns the fleet exists. A nil errorLog
// selects log.Default().
func NewHandler(coord *Coordinator, node *server.Server, errorLog *log.Logger) http.Handler {
	if errorLog == nil {
		errorLog = log.Default()
	}
	h := &handler{coord: coord, node: node, errorLog: errorLog}
	return node.Admit(h.serve)
}

type handler struct {
	coord    *Coordinator
	node     *server.Server
	errorLog *log.Logger
}

func (h *handler) serve(w http.ResponseWriter, r *http.Request, req *api.SolveRequest) {
	res, err := h.coord.Solve(r.Context(), req)
	if err != nil {
		h.writeSolveError(w, r, err)
		return
	}
	w.Header().Set(BandsHeader, strconv.Itoa(res.Stats.Bands))
	w.Header().Set(RelocationsHeader, strconv.Itoa(res.Stats.Relocations))
	w.Header().Set(api.SolveIDHeader, strconv.FormatInt(res.ID, 10))
	resp := &api.SolveResponse{
		ID: res.ID, Status: "done", Rows: res.Rows, Cols: res.Cols,
		Mask: res.Mask, Pattern: res.Pattern, Digest: res.Digest, ElapsedMS: res.ElapsedMS,
	}
	if req.ReturnCells {
		resp.Cells = make([][]int64, res.Rows)
		for i := range resp.Cells {
			resp.Cells[i] = res.Cells[i*res.Cols : (i+1)*res.Cols]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		h.errorLog.Printf("fleet: writing response: %v", err)
	}
}

// writeSolveError maps a coordinator failure onto the wire: request
// mistakes stay 400, a deadline the caller set maps to 408, and
// anything else — nodes unreachable, relocation budget exhausted — is
// 503, the fleet-level "try again later".
func (h *handler) writeSolveError(w http.ResponseWriter, r *http.Request, err error) {
	var planErr *PlanError
	switch {
	case errors.As(err, &planErr), errors.Is(err, client.ErrInvalid):
		h.node.WriteError(w, http.StatusBadRequest, "invalid", 0, err.Error())
	case errors.Is(err, client.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		h.node.WriteError(w, http.StatusRequestTimeout, "canceled", 0, err.Error())
	case r.Context().Err() != nil:
		h.node.WriteError(w, 499, "canceled", 0, err.Error())
	default:
		h.node.WriteError(w, http.StatusServiceUnavailable, "unavailable", 0, err.Error())
	}
}
