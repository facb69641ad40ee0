package core

import (
	"context"

	"repro/internal/hetsim"
)

// heteroExec carries the state shared by all strategy implementations: the
// (canonicalized) problem, its wavefront space, and the simulator
// collecting the timing DAG.
//
// Correctness and timing are decoupled: the strategies only plan, each
// cpuOp/gpuOp submitting a timed operation for what its device would do
// with a cell range, and the caller fills the table afterwards on the tile
// engine. Any dependency-respecting order yields the same table, and
// TestTimelineLegal checks that every plan respects the dependencies.
type heteroExec[T any] struct {
	p         *Problem[T]
	w         Wavefronts
	sim       *hetsim.Sim
	opts      Options
	coalesced bool // the modelled layout stores fronts contiguously
	bpc       int
	ctx       context.Context
	done      <-chan struct{} // solve context's done channel; nil = uncancellable
}

func newHeteroExec[T any](ctx context.Context, p *Problem[T], w Wavefronts, opts Options) *heteroExec[T] {
	return &heteroExec[T]{
		p:         p,
		w:         w,
		sim:       hetsim.NewSim(opts.Platform),
		opts:      opts,
		coalesced: !opts.Uncoalesced,
		bpc:       p.bytesPerCell(),
		ctx:       ctx,
		done:      ctxDone(ctx),
	}
}

// canceled polls the solve context; the strategies check it once per front,
// which bounds the cancellation latency to one front's work.
func (e *heteroExec[T]) canceled() bool { return isDone(e.done) }

// cancelErr builds the *Canceled error for a strategy interrupted at front.
func (e *heteroExec[T]) cancelErr(solver string, front int) error {
	return canceledErr(e.ctx, solver, front)
}

// cpuOp submits the CPU parallel region computing cells [lo, hi) of front
// t. label is the static phase label ("cpu:p1", ...); the front index is
// carried as a tag and only rendered into the label by trace sinks
// (OpRecord.FullLabel), so the per-front hot path submits ops without any
// string formatting or allocation.
func (e *heteroExec[T]) cpuOp(t, lo, hi int, label string, deps ...hetsim.OpID) hetsim.OpID {
	if hi <= lo {
		return hetsim.NoOp
	}
	cells := hi - lo
	cpu := e.opts.Platform.CPU
	var dur = cpu.RegionDuration(cells, e.coalesced)
	if e.opts.CPUThreadPerCell {
		dur = cpu.ThreadPerCellDuration(cells, e.coalesced)
	}
	return e.sim.SubmitFront(hetsim.Op{
		Resource: hetsim.ResCPU,
		Kind:     hetsim.OpCompute,
		Duration: dur,
		Label:    label,
		Cells:    cells,
	}, t, deps...)
}

// gpuOp submits the kernel launch computing cells [lo, hi) of front t.
// label is the static phase label ("gpu:p2", ...); see cpuOp for the lazy
// front tagging.
func (e *heteroExec[T]) gpuOp(t, lo, hi int, label string, deps ...hetsim.OpID) hetsim.OpID {
	if hi <= lo {
		return hetsim.NoOp
	}
	cells := hi - lo
	dur := e.opts.Platform.GPU.KernelDuration(cells, e.coalesced)
	return e.sim.SubmitFront(hetsim.Op{
		Resource: hetsim.ResGPU,
		Kind:     hetsim.OpCompute,
		Duration: dur,
		Label:    label,
		Cells:    cells,
	}, t, deps...)
}

// transferResource selects the queue a boundary transfer runs on: a DMA
// engine when pipelining is enabled (paper §IV-C case 1), or the GPU's own
// queue when disabled, which models a synchronous default-stream copy that
// blocks kernel execution.
func (e *heteroExec[T]) transferResource(res hetsim.Resource) hetsim.Resource {
	if e.opts.DisablePipeline {
		return hetsim.ResGPU
	}
	return res
}

// boundary submits the per-iteration exchange of cells boundary cells.
// Boundary transfers use pinned memory by default (paper §IV-C case 2:
// "we only transfer a few cells ... we use pinned memory"); the UsePageable
// ablation reverts them.
func (e *heteroExec[T]) boundary(res hetsim.Resource, cells int, label string, deps ...hetsim.OpID) hetsim.OpID {
	if cells <= 0 {
		return hetsim.NoOp
	}
	bytes := cells * e.bpc
	pinned := !e.opts.UsePageable
	dur := e.opts.Platform.Bus.TransferDuration(bytes, pinned)
	return e.sim.Submit(hetsim.Op{
		Resource: e.transferResource(res),
		Kind:     hetsim.OpTransfer,
		Duration: dur,
		Label:    label,
		Cells:    cells,
		Bytes:    bytes,
	}, deps...)
}

// bulk submits a large pageable transfer (input upload, phase-boundary
// synchronization, result extraction).
func (e *heteroExec[T]) bulk(res hetsim.Resource, bytes int, label string, deps ...hetsim.OpID) hetsim.OpID {
	if bytes <= 0 {
		return hetsim.NoOp
	}
	dur := e.opts.Platform.Bus.TransferDuration(bytes, false)
	return e.sim.Submit(hetsim.Op{
		Resource: e.transferResource(res),
		Kind:     hetsim.OpTransfer,
		Duration: dur,
		Label:    label,
		Bytes:    bytes,
	}, deps...)
}

// uploadInput submits the initial host-to-device copy of the problem input
// (cost grids, images, ...). Returns NoOp for negligible inputs.
func (e *heteroExec[T]) uploadInput() hetsim.OpID {
	return e.bulk(hetsim.ResCopyH2D, e.p.InputBytes, "h2d:input")
}

// extract submits the final device-to-host copy of cells result cells.
func (e *heteroExec[T]) extract(cells int, deps ...hetsim.OpID) hetsim.OpID {
	return e.bulk(hetsim.ResCopyD2H, cells*e.bpc, "d2h:result", deps...)
}

// clampTSwitch bounds t_switch to at most half the fronts so the prefix
// and suffix low-work regions never overlap.
func clampTSwitch(tSwitch, fronts int) int {
	if tSwitch < 0 {
		return 0
	}
	if tSwitch > fronts/2 {
		return fronts / 2
	}
	return tSwitch
}
