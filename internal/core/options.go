package core

import (
	"fmt"

	"repro/internal/hetsim"
	"repro/internal/trace"
)

// Options configures the heterogeneous solver and the simulated baselines.
// The zero value selects the Hetero-High platform, auto-tuned parameters,
// the pattern's coalescing-friendly layout, and all of the paper's
// optimizations enabled.
type Options struct {
	// Platform is the simulated CPU+GPU node. Nil selects Hetero-High.
	Platform *hetsim.Platform

	// TSwitch is the number of low-work iterations handled entirely by the
	// CPU at the start and end of grow-shrink patterns (paper §III, §V-A).
	// Negative selects the model-derived default (DefaultTSwitch).
	TSwitch int

	// TShare is the number of cells per iteration assigned to the CPU in
	// the high-work region (paper §III, §V-A). Negative selects the
	// model-derived default (DefaultTShare). Zero disables CPU sharing.
	TShare int

	// Uncoalesced models a naive row-major DP table instead of the executed
	// pattern's coalescing-friendly layout (paper §IV-B): the 2-D simulated
	// strategies' GPU kernels run uncoalesced and their CPU fronts strided,
	// which is the coalescing ablation. It changes simulated time only; the
	// 3-D strategies always model plane-major storage.
	Uncoalesced bool

	// PreferInvertedL forces contributing sets that classify as Inverted-L
	// to run the genuine inverted-L strategy. By default the framework
	// solves them with horizontal case-1, which §V-B shows is faster
	// ("uniformity ... and coalescing-friendly layout makes the horizontal
	// pattern a better choice").
	PreferInvertedL bool

	// DisablePipeline places boundary transfers on the GPU's own queue
	// instead of the DMA engines, modeling synchronous default-stream
	// copies: the copy/compute overlap of paper §IV-C case 1 is lost.
	DisablePipeline bool

	// UsePageable routes per-iteration boundary transfers through pageable
	// instead of pinned memory, the ablation for paper §IV-C case 2.
	UsePageable bool

	// CPUThreadPerCell spawns one task per cell on the CPU instead of
	// chunking, the rejected strategy of paper §IV-A.
	CPUThreadPerCell bool

	// SkipCompute runs only the timing model: the simulated strategies plan
	// their schedule and skip the table fill, and Result.Grid is nil. The
	// autotuner uses this to sweep parameters quickly.
	SkipCompute bool

	// NativeWorkers is the worker count of the native tile engine
	// (SolveParallel, SolveTiledContext, SolveParallel3) and of the
	// tile-engine fill that gives the simulated strategies their cell
	// values. Zero or negative selects the default
	// min(runtime.GOMAXPROCS(0), runtime.NumCPU()): the engine is
	// compute-bound, so workers beyond the physical cores add no
	// throughput.
	NativeWorkers int

	// Tracer records per-event runtime traces (tile tasks, ready-queue
	// samples, simulated phases and transfers) into per-worker ring
	// buffers for Perfetto export and utilization analysis.
	// Nil — the default — disables tracing; the hot paths guard every
	// emission behind one nil test. For the simulated strategies the
	// Tracer imports the simulated schedule; the table fill that computes
	// their cell values records nothing.
	Tracer *trace.Recorder
}

// MaxNativeWorkers is the worker-count ceiling Validate enforces. A value
// past it is a configuration mistake, not a tuning choice: no host has
// 2^10 physical cores to keep busy.
const MaxNativeWorkers = 1 << 10

// Validate checks the native runtime knob. Zero and negative values are
// legal (they select the documented default, matching the rest of the
// Options convention); a value beyond MaxNativeWorkers returns an error.
// The simulated-platform knobs (TSwitch, TShare) are clamped rather than
// validated — see the range note at the bottom of this file.
func (o Options) Validate() error {
	if o.NativeWorkers > MaxNativeWorkers {
		return fmt.Errorf("core: NativeWorkers %d exceeds limit %d", o.NativeWorkers, MaxNativeWorkers)
	}
	return nil
}

// withDefaults resolves nil/auto fields against a problem's executed
// wavefront space.
func (o Options) withDefaults(w Wavefronts, transfer TransferKind) Options {
	if o.Platform == nil {
		o.Platform = hetsim.HeteroHigh()
	}
	if o.TSwitch < 0 {
		o.TSwitch = DefaultTSwitch(o.Platform, w)
	}
	if o.TShare < 0 {
		o.TShare = DefaultTShare(o.Platform, w, transfer)
	}
	return o
}

// Note on ranges: TSwitch and TShare are clamped, not rejected — a TSwitch
// past half the fronts degenerates to the CPU handling everything, and a
// TShare past the front width simply assigns whole fronts to the CPU. The
// tuner relies on sweeping these freely.
