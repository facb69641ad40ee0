package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/hetsim"
	"repro/internal/table"
	"repro/internal/trace"
)

// Multi-accelerator execution: the extension the paper's conclusion asks
// about, generalized past a single extra device. A horizontal-pattern
// problem's rows are split into a CPU span followed by one contiguous span
// per accelerator; every device advances row by row, exchanging boundary
// cells with its neighbours exactly as the two-device horizontal strategy
// does (NW dependencies flow left-to-right, NE right-to-left).
// Accelerator-to-accelerator boundary traffic is staged through the host
// (a D2H followed by an H2D), as PCIe peer-to-peer copies were not
// dependable on 2013-era platforms.
//
// Patterns other than Horizontal (after symmetry reduction and the
// inverted-L preference) are rejected: grow-shrink patterns need per-phase
// repartitioning that the paper leaves to future work.

// Accelerator pairs a device model with a display name for multi-device
// configurations.
type Accelerator struct {
	Name  string
	Model hetsim.GPUModel
}

// MultiResult is the outcome of a multi-accelerator solve.
type MultiResult[T any] struct {
	Grid *table.Grid[T]
	// Shares holds the column span of each device, CPU first, then the
	// accelerators in order.
	Shares   []int
	Timeline hetsim.Timeline
}

// SolveHeteroMulti executes a horizontal-pattern problem across the
// platform CPU plus the given accelerators. shares assigns a column span
// per device (CPU first); nil derives spans proportional to each device's
// asymptotic throughput.
func SolveHeteroMulti[T any](p *Problem[T], opts Options, accels []Accelerator, shares []int) (*MultiResult[T], error) {
	return SolveHeteroMultiContext(context.Background(), p, opts, accels, shares)
}

// SolveHeteroMultiContext is SolveHeteroMulti honoring a context, polled
// once per row while planning and once per tile row while filling the
// table. A canceled solve returns a nil result and a *Canceled error.
func SolveHeteroMultiContext[T any](ctx context.Context, p *Problem[T], opts Options, accels []Accelerator, shares []int) (res *MultiResult[T], err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(accels) == 0 {
		return nil, fmt.Errorf("core: multi solve needs at least one accelerator")
	}
	cp, canonical, _, _ := canonicalize(p)
	executed := canonical
	if canonical == InvertedL {
		executed = Horizontal
	}
	if executed != Horizontal {
		return nil, fmt.Errorf("core: multi-accelerator execution supports horizontal-pattern problems only, got %s", canonical)
	}
	w := NewWavefronts(Horizontal, cp.Rows, cp.Cols)
	o := opts.withDefaults(w, TransferNeed(p.Deps))

	if shares == nil {
		shares = DefaultMultiShares(o.Platform.CPU, accels, cp.Cols)
	}
	if len(shares) != len(accels)+1 {
		return nil, fmt.Errorf("core: %d shares for %d devices", len(shares), len(accels)+1)
	}
	total := 0
	for i, s := range shares {
		if s < 0 {
			return nil, fmt.Errorf("core: share %d negative", i)
		}
		total += s
	}
	if total != cp.Cols {
		return nil, fmt.Errorf("core: shares sum to %d, want %d columns", total, cp.Cols)
	}

	e := newHeteroExec(ctx, cp, w, o)
	if err = runHorizontalMulti(e, accels, shares); err != nil {
		return nil, err
	}
	var grid *table.Grid[T]
	if !o.SkipCompute {
		if grid, err = fillTiles(ctx, "multi", p, o); err != nil {
			return nil, err
		}
	}

	res = &MultiResult[T]{
		Grid:     grid,
		Shares:   shares,
		Timeline: e.sim.Timeline(),
	}
	if tr := o.Tracer; tr != nil {
		// No EndSolve: imported events live on the simulated clock.
		tr.BeginSolve(trace.Meta{
			Solver: "multi", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: Horizontal.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: w.Fronts, Clock: "sim",
		})
		tr.ImportTimeline(res.Timeline)
	}
	return res, nil
}

// DefaultMultiShares splits cols across the CPU and accelerators by
// water-filling on per-row completion time: find the smallest deadline T
// at which the devices can jointly finish a row, where a device
// contributes max(0, (T - fixed_d) * throughput_d) cells (fixed_d is the
// CPU's dispatch overhead or an accelerator's kernel-launch latency).
//
// Throughput-proportional splitting is wrong here: a weak accelerator with
// a high launch latency would receive a slice it cannot finish within the
// strong devices' row time and become the bottleneck. Water-filling
// assigns such a device nothing until rows are wide enough to amortize its
// launch cost.
func DefaultMultiShares(cpu hetsim.CPUModel, accels []Accelerator, cols int) []int {
	type dev struct {
		fixed float64 // seconds
		thr   float64 // cells per second
	}
	devs := make([]dev, len(accels)+1)
	devs[0] = dev{fixed: cpu.DispatchOverhead.Seconds(), thr: cpu.Throughput()}
	for i, a := range accels {
		devs[i+1] = dev{fixed: a.Model.LaunchLatency.Seconds(), thr: a.Model.Throughput()}
	}
	capacity := func(T float64) float64 {
		var c float64
		for _, d := range devs {
			if T > d.fixed {
				c += (T - d.fixed) * d.thr
			}
		}
		return c
	}
	lo, hi := 0.0, 1e-6
	for capacity(hi) < float64(cols) {
		hi *= 2
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if capacity(mid) < float64(cols) {
			lo = mid
		} else {
			hi = mid
		}
	}
	shares := make([]int, len(devs))
	assigned := 0
	widest := 0
	for i, d := range devs {
		if hi > d.fixed {
			shares[i] = int((hi - d.fixed) * d.thr)
		}
		assigned += shares[i]
		if shares[i] > shares[widest] {
			widest = i
		}
	}
	// Rounding leftovers go to the widest device.
	shares[widest] += cols - assigned
	return shares
}

// runHorizontalMulti is the n-device generalization of runHorizontal. The
// solve context is polled once per row; an observed cancellation aborts the
// plan and surfaces as *Canceled.
func runHorizontalMulti[T any](e *heteroExec[T], accels []Accelerator, shares []int) error {
	needRight := e.p.Deps.Has(DepNW) // boundary values flow left -> right
	needLeft := e.p.Deps.Has(DepNE)  // boundary values flow right -> left

	// Device d spans columns [starts[d], starts[d+1]).
	nDev := len(shares)
	starts := make([]int, nDev+1)
	for d := 0; d < nDev; d++ {
		starts[d+1] = starts[d] + shares[d]
	}

	// Device 0 is the CPU on ResCPU; device d>0 is accels[d-1] on its own
	// named stream.
	queues := make([]hetsim.Resource, nDev)
	queues[0] = hetsim.ResCPU
	for d := 1; d < nDev; d++ {
		queues[d] = e.sim.NewNamedStream(accels[d-1].Name)
	}

	// Every accelerator that received work needs the input uploaded before
	// its first kernel; idle devices cost nothing.
	uploads := make([]hetsim.OpID, nDev)
	uploads[0] = hetsim.NoOp
	for d := 1; d < nDev; d++ {
		uploads[d] = hetsim.NoOp
		if shares[d] > 0 {
			uploads[d] = e.bulk(hetsim.ResCopyH2D, e.p.InputBytes, "h2d:input:"+accels[d-1].Name)
		}
	}

	last := make([]hetsim.OpID, nDev)
	// rightXfer[d] is the transfer delivering device d's right-boundary
	// cell to device d+1; leftXfer[d] delivers device d's left-boundary
	// cell to device d-1.
	rightXfer := make([]hetsim.OpID, nDev)
	leftXfer := make([]hetsim.OpID, nDev)
	for d := range last {
		last[d] = hetsim.NoOp
		rightXfer[d] = hetsim.NoOp
		leftXfer[d] = hetsim.NoOp
	}

	// Per-device static labels, built once; the row index rides along as
	// the SubmitFront tag so the per-row loop formats no strings.
	kernelLabel := make([]string, nDev)
	xferRightLabel := make([]string, nDev)
	xferLeftLabel := make([]string, nDev)
	for d := 1; d < nDev; d++ {
		kernelLabel[d] = accels[d-1].Name + ":p1"
	}
	for d := 0; d < nDev; d++ {
		ds := strconv.Itoa(d)
		xferRightLabel[d] = "xfer:right:d" + ds
		xferLeftLabel[d] = "xfer:left:d" + ds
	}

	computeOp := func(d, row int, deps ...hetsim.OpID) hetsim.OpID {
		lo, hi := starts[d], starts[d+1]
		if hi <= lo {
			return hetsim.NoOp
		}
		if d == 0 {
			return e.cpuOp(row, lo, hi, "cpu:p1", deps...)
		}
		dur := accels[d-1].Model.KernelDuration(hi-lo, e.coalesced)
		return e.sim.SubmitFront(hetsim.Op{
			Resource: queues[d],
			Kind:     hetsim.OpCompute,
			Duration: dur,
			Label:    kernelLabel[d],
			Cells:    hi - lo,
		}, row, deps...)
	}

	// xferBetween ships one boundary cell from device a to device b and
	// returns the op the consumer must wait on. CPU<->accelerator moves are
	// single DMA hops; accelerator<->accelerator moves stage through the
	// host as D2H then H2D.
	xferBetween := func(a, b int, producer hetsim.OpID, label string) hetsim.OpID {
		if a == 0 || b == 0 {
			res := hetsim.ResCopyH2D
			if b == 0 {
				res = hetsim.ResCopyD2H
			}
			return e.boundary(res, 1, label, producer)
		}
		down := e.boundary(hetsim.ResCopyD2H, 1, label+":d2h", producer)
		return e.boundary(hetsim.ResCopyH2D, 1, label+":h2d", down)
	}

	newRight := make([]hetsim.OpID, nDev)
	newLeft := make([]hetsim.OpID, nDev)
	ops := make([]hetsim.OpID, nDev)
	for row := 0; row < e.w.Fronts; row++ {
		if e.canceled() {
			return e.cancelErr("multi", row)
		}
		for d := 0; d < nDev; d++ {
			newRight[d], newLeft[d] = hetsim.NoOp, hetsim.NoOp
		}
		for d := 0; d < nDev; d++ {
			// Fixed-arity deps (NoOp ignored) avoid a per-device append.
			fromLeft, fromRight := hetsim.NoOp, hetsim.NoOp
			if needRight && d > 0 {
				fromLeft = rightXfer[d-1]
			}
			if needLeft && d < nDev-1 {
				fromRight = leftXfer[d+1]
			}
			ops[d] = computeOp(d, row, last[d], uploads[d], fromLeft, fromRight)
			if ops[d] != hetsim.NoOp {
				last[d] = ops[d]
			}
		}
		// Emit this row's boundary transfers for the next row's consumers.
		for d := 0; d < nDev; d++ {
			if ops[d] == hetsim.NoOp {
				continue
			}
			if needRight && d < nDev-1 && shares[d] > 0 && shares[d+1] > 0 {
				newRight[d] = xferBetween(d, d+1, ops[d], xferRightLabel[d])
			}
			if needLeft && d > 0 && shares[d] > 0 && shares[d-1] > 0 {
				newLeft[d] = xferBetween(d, d-1, ops[d], xferLeftLabel[d])
			}
		}
		copy(rightXfer, newRight)
		copy(leftXfer, newLeft)
	}

	// Pull each accelerator's slice of the final row back to the host.
	for d := 1; d < nDev; d++ {
		if shares[d] > 0 && last[d] != hetsim.NoOp {
			e.bulk(hetsim.ResCopyD2H, shares[d]*e.bpc, "d2h:result:"+accels[d-1].Name, last[d])
		}
	}
	return nil
}
