// Package lddp is the public facade of the LDDP-Plus framework: one entry
// point, Solve, that runs any local-dependency dynamic-programming problem
// through the framework's executors — sequential reference, native
// dependency-driven tile engine (row segments or square tiles, cut along
// the wavefront index i + j for the masks that read NE with W or NW), the
// paper's heterogeneous CPU+GPU strategies on a simulated platform, and the
// multi-accelerator extension — selected and configured with functional
// options.
//
// The package re-exports every type needed to define a problem and consume
// a result, so importers never reach into the internal packages:
//
//	p := &lddp.Problem[int32]{
//		Name: "lcs", Rows: n, Cols: m,
//		Deps: lddp.DepW | lddp.DepNW | lddp.DepN,
//		F:    func(i, j int, nb lddp.Neighbors[int32]) int32 { ... },
//	}
//	res, err := lddp.Solve(context.Background(), p,
//		lddp.WithStrategy(lddp.Hetero), lddp.WithPlatform("Hetero-High"))
//
// Solves honor the context: cancellation is observed per tile row by the
// native strategies and per wavefront by the simulated ones, and surfaces
// as a *Canceled error wrapping
// context.Cause. Passing WithCollector (e.g. a *Metrics) instruments the
// solve with phase wall times, front-size and worker-utilization counters,
// and simulated transfer volumes; without it instrumentation costs nothing.
package lddp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Problem is a complete 2-D LDDP problem instance (alias of the internal
// core type, so values are interchangeable with the internal API).
type Problem[T any] = core.Problem[T]

// Problem3 is a 3-D LDDP problem instance.
type Problem3[T any] = core.Problem3[T]

// Neighbors carries the resolved contributing-neighbour values for one
// evaluation of the recurrence.
type Neighbors[T any] = core.Neighbors[T]

// CellFunc is the user-supplied recurrence.
type CellFunc[T any] = core.CellFunc[T]

// BoundaryFunc resolves out-of-table neighbour reads.
type BoundaryFunc[T any] = core.BoundaryFunc[T]

// Grid is the computed DP table.
type Grid[T any] = table.Grid[T]

// Grid3 is the computed 3-D DP table.
type Grid3[T any] = table.Grid3[T]

// DepMask is a contributing set: a bit set over the four representative
// neighbours W, NW, N, NE (paper §II).
type DepMask = core.DepMask

// Contributing-set bits.
const (
	DepW  = core.DepW
	DepNW = core.DepNW
	DepN  = core.DepN
	DepNE = core.DepNE
)

// Pattern is a Table-I dependency pattern.
type Pattern = core.Pattern

// The six Table-I patterns.
const (
	AntiDiagonal = core.AntiDiagonal
	Horizontal   = core.Horizontal
	InvertedL    = core.InvertedL
	KnightMove   = core.KnightMove
	Vertical     = core.Vertical
	MInvertedL   = core.MInvertedL
)

// TransferKind is a Table-II per-iteration transfer requirement.
type TransferKind = core.TransferKind

// The Table-II transfer kinds.
const (
	TransferNone   = core.TransferNone
	TransferOneWay = core.TransferOneWay
	TransferTwoWay = core.TransferTwoWay
)

// Reduction is the symmetry transform applied before execution.
type Reduction = core.Reduction

// Canceled is the error returned when a solve observes context
// cancellation; it records the executor and the wavefront reached, and
// unwraps to context.Cause of the solve context.
type Canceled = core.Canceled

// Collector receives runtime observability events; see core.Collector for
// the event contract. A nil Collector disables instrumentation at zero
// overhead.
type Collector = core.Collector

// SolveInfo describes a starting solve to a Collector.
type SolveInfo = core.SolveInfo

// WorkerStats reports one pool worker's utilization to a Collector.
type WorkerStats = core.WorkerStats

// TransferStats reports one simulated transfer to a Collector.
type TransferStats = core.TransferStats

// Tracer is the per-worker ring-buffer event recorder; attach one with
// WithTracer to capture timestamped runtime events (front begin/end,
// chunk claims, barrier waits, tile tasks, simulated transfers).
// Like Collector, a nil Tracer disables tracing at zero overhead. Export
// a finished trace with WriteTrace (Chrome/Perfetto JSON) or
// WriteTraceSummary (plain text); the lddptrace command analyzes the
// JSON offline.
type Tracer = trace.Recorder

// TraceEvent is one recorded runtime event.
type TraceEvent = trace.Event

// TraceMeta describes the solve a trace belongs to.
type TraceMeta = trace.Meta

// TraceReport is the analyzed view of a trace: per-worker utilization
// timelines, barrier-stall breakdown, and the critical path through the
// front DAG.
type TraceReport = trace.Report

// NewTracer returns a Tracer with the default per-worker ring capacity
// (trace.DefaultLaneCap events per lane). Rings overwrite their oldest
// events when full; use NewTracerCap for bigger windows.
func NewTracer() *Tracer { return trace.NewRecorder(0) }

// NewTracerCap returns a Tracer whose per-worker rings hold laneCap
// events each (rounded up to a power of two; <= 0 selects the default).
func NewTracerCap(laneCap int) *Tracer { return trace.NewRecorder(laneCap) }

// WriteTrace writes the recorded events as Chrome trace-event JSON,
// loadable in ui.perfetto.dev or chrome://tracing. Call only after the
// solve has returned.
func WriteTrace(w io.Writer, t *Tracer) error { return trace.WriteChrome(w, t) }

// WriteTraceSummary writes the analyzed trace as a plain-text summary:
// per-worker utilization with ASCII timelines, barrier-stall breakdown,
// and the critical-path decomposition.
func WriteTraceSummary(w io.Writer, t *Tracer) error {
	return trace.WriteSummary(w, AnalyzeTrace(t, 0))
}

// AnalyzeTrace computes the analyzed report of a recorded trace;
// buckets sizes the utilization timeline (<= 0 selects 60).
func AnalyzeTrace(t *Tracer, buckets int) *TraceReport {
	meta := t.Meta()
	meta.Dropped = t.Dropped()
	return trace.Analyze(meta, t.Events(), buckets)
}

// Timeline is the resolved schedule of a simulated solve.
type Timeline = hetsim.Timeline

// Platform is a calibrated CPU+GPU node model for the simulated executors.
type Platform = hetsim.Platform

// Accelerator pairs a device model with a display name for the
// multi-accelerator strategy.
type Accelerator = core.Accelerator

// Classify returns the Table-I pattern of a contributing set.
func Classify(m DepMask) Pattern { return core.Classify(m) }

// ParseDepMask parses a contributing set like "{W,NW}" or "w,nw"
// (case-insensitive), the inverse of DepMask.String.
func ParseDepMask(s string) (DepMask, error) { return core.ParseDepMask(s) }

// AllDepMasks enumerates the 15 valid contributing sets.
func AllDepMasks() []DepMask { return core.AllDepMasks() }

// TransferNeed returns the Table-II transfer requirement of a contributing
// set.
func TransferNeed(m DepMask) TransferKind { return core.TransferNeed(m) }

// PlatformByName resolves a calibrated platform preset by exact name:
// "Hetero-High", "Hetero-Low", "Hetero-Phi" or "Hetero-Modern".
func PlatformByName(name string) (*Platform, error) { return hetsim.PlatformByName(name) }

// AcceleratorByName resolves the accelerator models usable with
// WithAccelerators: "k20", "gt650m" and "phi".
func AcceleratorByName(name string) (Accelerator, error) {
	switch name {
	case "k20":
		return Accelerator{Name: name, Model: hetsim.HeteroHigh().GPU}, nil
	case "gt650m":
		return Accelerator{Name: name, Model: hetsim.HeteroLow().GPU}, nil
	case "phi":
		return Accelerator{Name: name, Model: hetsim.HeteroPhi().GPU}, nil
	default:
		return Accelerator{}, fmt.Errorf("lddp: unknown accelerator %q (want k20, gt650m or phi)", name)
	}
}

// DefaultTile returns the largest tile size whose block still fits a
// typical per-core L2 slice; the default for WithTile-less tiled solves.
func DefaultTile(bytesPerCell int) int { return core.DefaultTile(bytesPerCell) }
