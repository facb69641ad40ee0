package api

import (
	"fmt"

	"repro/internal/trace"
	"repro/lddp"
)

// AlignMask is the fixed contributing set of the "align" workload kind.
const AlignMask = lddp.DepW | lddp.DepNW | lddp.DepN

// DefaultMask is the contributing set a request selects by leaving Mask
// empty (all kinds except "align", whose recurrence fixes AlignMask).
const DefaultMask = lddp.DepW | lddp.DepN

// ResolveMask resolves a request's contributing set from its workload
// kind and mask string, applying the service's defaulting rules: the
// "align" kind runs the fixed AlignMask recurrence (a conflicting mask
// is an error), every other kind defaults to DefaultMask. It is the one
// source of truth both the server's problem builder and the fleet
// coordinator's band planner derive the mask from.
func ResolveMask(kind, mask string) (lddp.DepMask, error) {
	if kind == KindAlign {
		if mask == "" {
			return AlignMask, nil
		}
		m, err := lddp.ParseDepMask(mask)
		if err != nil {
			return 0, err
		}
		if m != AlignMask {
			return 0, fmt.Errorf("the align workload runs the fixed %s recurrence; omit mask or pass %q", AlignMask, AlignMask.String())
		}
		return AlignMask, nil
	}
	if mask == "" {
		return DefaultMask, nil
	}
	return lddp.ParseDepMask(mask)
}

// BandRequest is the body of POST /v1/band/solve: one rectangular block
// of a larger DP table, solved in isolation given the halo values along
// its exposed edges. The workload is the same declarative spec as a
// full solve — the node rebuilds the full-table recurrence from
// (kind, seed, full shape) and evaluates only rows [Row0, Row1) x cols
// [Col0, Col1), reading across-block neighbours from the halos. In the
// binary frame encoding the halos travel as tagged halo sections
// (wire.SectionNorth/West/East) instead of JSON arrays.
type BandRequest struct {
	// Rows and Cols are the FULL table dimensions the workload generator
	// is defined over; the block below is a sub-rectangle of it.
	Rows int `json:"rows"`
	Cols int `json:"cols"`

	// Row0/Row1 and Col0/Col1 bound the block: rows [Row0, Row1) x cols
	// [Col0, Col1), half-open, inside the full table.
	Row0 int `json:"row0"`
	Row1 int `json:"row1"`
	Col0 int `json:"col0"`
	Col1 int `json:"col1"`

	// Mask, Strategy, Workload and DeadlineMS have SolveRequest
	// semantics. Inline workload cells are not valid in band requests —
	// band workloads must be regenerable from the seed on any node.
	Mask       string       `json:"mask,omitempty"`
	Strategy   string       `json:"strategy,omitempty"`
	Workload   WorkloadSpec `json:"workload"`
	DeadlineMS int64        `json:"deadline_ms,omitempty"`

	// Trace identifies the originating fleet solve for cross-node trace
	// stitching; absent on standalone band requests. In the binary frame
	// encoding it rides the JSON frame header like every other field, so
	// propagating it costs no wire-format change.
	Trace *TraceContext `json:"trace,omitempty"`

	// HaloNorth carries full-table row Row0-1 over global columns
	// [NorthLo, NorthLo+len), exactly the span HaloSpec requires for the
	// mask. Present only when the mask reads the row above (NW/N/NE) and
	// Row0 > 0.
	HaloNorth []int64 `json:"halo_north,omitempty"`
	// NorthLo is the global column of HaloNorth[0].
	NorthLo int `json:"north_lo,omitempty"`
	// HaloWest carries full-table column Col0-1 over rows [Row0, Row1).
	// Present only when the mask reads leftward (W/NW) and Col0 > 0.
	HaloWest []int64 `json:"halo_west,omitempty"`
	// HaloEast carries full-table column Col1 over rows [Row0, Row1).
	// Present only when the mask includes NE and Col1 < Cols — the
	// right-to-left phase pipeline supplies it from the block already
	// solved to the east.
	HaloEast []int64 `json:"halo_east,omitempty"`
}

// TraceContext ties one band request to the fleet solve that issued it,
// so the executing node can tag its trace with the originating solve
// and return it in the band response, which the coordinator stitches
// into one timeline.
type TraceContext struct {
	// FleetID is the coordinator-assigned fleet solve identifier.
	FleetID string `json:"fleet_id"`
	// Band is the row-band index of the block; Phase its column-phase
	// processing index.
	Band  int `json:"band"`
	Phase int `json:"phase"`
}

// BandResponse is the 200 body of a completed band solve.
type BandResponse struct {
	// ID is the scheduler-assigned solve ID of the block solve on the
	// executing node.
	ID int64 `json:"id"`
	// Status is "done".
	Status string `json:"status"`
	// Row0/Row1/Col0/Col1 echo the solved block.
	Row0 int `json:"row0"`
	Row1 int `json:"row1"`
	Col0 int `json:"col0"`
	Col1 int `json:"col1"`
	// Mask echoes the resolved contributing set.
	Mask string `json:"mask"`
	// Cells is the solved block, row-major, (Row1-Row0) rows of
	// (Col1-Col0) values. Always present: the coordinator needs every
	// block to assemble the table.
	Cells [][]int64 `json:"cells,omitempty"`
	// ElapsedMS is the node-side wall time of the block solve.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the block solve's trace, present when the node records
	// traces (-tracedir) and the request carried a trace context. It
	// holds the newest events that keep a frame header within
	// wire.MaxHeaderBytes; Meta.Dropped counts the rest.
	Trace *trace.BlockTrace `json:"trace,omitempty"`
}

// HaloLens is the halo coverage a band request must carry, as computed
// by HaloSpec. Zero lengths mean the corresponding halo is absent.
type HaloLens struct {
	// NorthLo is the global column of the first north-halo value;
	// NorthLen its length. The north halo covers row Row0-1.
	NorthLo, NorthLen int
	// WestLen values of column Col0-1 over rows [Row0, Row1).
	WestLen int
	// EastLen values of column Col1 over rows [Row0, Row1).
	EastLen int
}

// HaloSpec computes the exact halo coverage a block needs under a mask:
// the north halo spans the block's columns widened one column left when
// NW contributes and one column right when NE does (clipped to the
// table); the west halo exists when W or NW contribute and Col0 > 0;
// the east halo when NE contributes and Col1 < cols. Out-of-table
// neighbour reads are not halo material — nodes resolve those through
// the workload's own boundary function. Both the coordinator (to slice
// halos) and the server (to validate them) call this, so coverage
// disagreements are structurally impossible.
func HaloSpec(mask lddp.DepMask, rows, cols, row0, row1, col0, col1 int) HaloLens {
	var h HaloLens
	if row0 > 0 && mask&(lddp.DepNW|lddp.DepN|lddp.DepNE) != 0 {
		lo, hi := col0, col1-1
		if mask.Has(lddp.DepNW) {
			lo--
		}
		if mask.Has(lddp.DepNE) {
			hi++
		}
		if lo < 0 {
			lo = 0
		}
		if hi > cols-1 {
			hi = cols - 1
		}
		h.NorthLo, h.NorthLen = lo, hi-lo+1
	}
	if col0 > 0 && mask&(lddp.DepW|lddp.DepNW) != 0 {
		h.WestLen = row1 - row0
	}
	if col1 < cols && mask.Has(lddp.DepNE) {
		h.EastLen = row1 - row0
	}
	return h
}
