package lddp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// Strategy selects the executor Solve runs a problem through.
type Strategy int

const (
	// Auto selects Parallel, the fastest way to actually compute a table
	// on the host.
	Auto Strategy = iota
	// Sequential runs the row-major reference solver.
	Sequential
	// Parallel runs the native dependency-driven tile engine on tiles
	// derived from the mask, the table shape and the worker count: row
	// segments, or, for the six masks that read NE with W or NW,
	// multi-row tiles cut along the wavefront index i + j. A tile starts
	// as soon as the neighbour tiles it reads are done, with no wavefront
	// barriers.
	Parallel
	// Tiled runs the same tile engine on square tiles (WithTile), the
	// cache-efficient tiled multicore scheme; the masks that read NE
	// with W or NW get their squares along i + j.
	Tiled
	// Hetero runs the paper's heterogeneous CPU+GPU framework on the
	// simulated platform: simulated timing, with the cell values computed
	// by the tile engine at WithWorkers.
	Hetero
	// SimCPU runs the simulated multicore-CPU baseline.
	SimCPU
	// SimGPU runs the simulated pure-GPU baseline.
	SimGPU
	// Multi runs the multi-accelerator extension (horizontal-pattern
	// problems; requires WithAccelerators).
	Multi
	// Async is the dependency-driven tile schedule under its own name: it
	// runs exactly as Parallel does, in Solve and on the shared scheduler
	// (see Submit).
	Async
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	case Tiled:
		return "tiled"
	case Hetero:
		return "hetero"
	case SimCPU:
		return "sim-cpu"
	case SimGPU:
		return "sim-gpu"
	case Multi:
		return "multi"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// config is the resolved option set; options record errors instead of
// panicking and Solve reports the first one.
type config struct {
	strategy Strategy
	opts     core.Options
	tile     int
	accels   []Accelerator
	shares   []int
	err      error
}

// Option configures a Solve call.
type Option func(*config)

// WithStrategy selects the executor; the default is Auto.
func WithStrategy(s Strategy) Option {
	return func(c *config) {
		if s < Auto || s > Async {
			c.err = fmt.Errorf("lddp: unknown strategy %d", int(s))
			return
		}
		c.strategy = s
	}
}

// WithWorkers sets the worker count of the native strategies (Parallel,
// Tiled, Async) and of the tile-engine fill that computes the simulated
// strategies' (Hetero, SimCPU, SimGPU, Multi) cell values. Zero or
// negative selects the default min(GOMAXPROCS, NumCPU); a count past
// core.MaxNativeWorkers is an error for all of them.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.NativeWorkers = n }
}

// WithChunk is kept for compatibility and ignored: neither Solve's
// strategies nor the shared scheduler (Submit) run in chunks any more.
// Values past the old ceiling are still reported as an error.
func WithChunk(n int) Option {
	return func(c *config) { c.opts.NativeChunk = n }
}

// WithTile sets the block size of the Tiled strategy. Unset or
// non-positive selects DefaultTile for the problem's cell size.
func WithTile(n int) Option {
	return func(c *config) { c.tile = n }
}

// WithPlatform selects the simulated platform preset by name
// ("Hetero-High", "Hetero-Low", "Hetero-Phi", "Hetero-Modern") for the
// Hetero/SimCPU/SimGPU/Multi strategies.
func WithPlatform(name string) Option {
	return func(c *config) {
		p, err := PlatformByName(name)
		if err != nil {
			c.err = err
			return
		}
		c.opts.Platform = p
	}
}

// WithPlatformModel supplies a platform model directly.
func WithPlatformModel(p *Platform) Option {
	return func(c *config) { c.opts.Platform = p }
}

// WithTSwitch overrides the number of CPU-only low-work iterations of the
// heterogeneous strategies; negative (the default) auto-tunes it.
func WithTSwitch(n int) Option {
	return func(c *config) { c.opts.TSwitch = n }
}

// WithTShare overrides the CPU's per-iteration cell share of the
// heterogeneous strategies; negative (the default) auto-tunes it.
func WithTShare(n int) Option {
	return func(c *config) { c.opts.TShare = n }
}

// WithPreferInvertedL runs inverted-L problems through the genuine
// inverted-L strategy instead of the (faster) horizontal case-1 route.
func WithPreferInvertedL() Option {
	return func(c *config) { c.opts.PreferInvertedL = true }
}

// WithCollector attaches a runtime observability sink (e.g. *Metrics) to
// the solve. Nil keeps instrumentation disabled.
func WithCollector(coll Collector) Option {
	return func(c *config) { c.opts.Collector = coll }
}

// WithTracer attaches a runtime event tracer (see NewTracer) to the
// solve. Nil keeps tracing disabled. The tracer's rings must not be read
// (WriteTrace, AnalyzeTrace) until Solve has returned.
func WithTracer(t *Tracer) Option {
	return func(c *config) { c.opts.Tracer = t }
}

// WithAccelerators resolves the named accelerator models ("k20", "gt650m",
// "phi") for the Multi strategy; ordering fixes the device order after the
// host CPU.
func WithAccelerators(names ...string) Option {
	return func(c *config) {
		accels := make([]Accelerator, 0, len(names))
		for _, n := range names {
			a, err := AcceleratorByName(n)
			if err != nil {
				c.err = err
				return
			}
			accels = append(accels, a)
		}
		c.accels = accels
	}
}

// WithShares fixes the per-device column spans of the Multi strategy (CPU
// first); nil derives throughput-balanced spans.
func WithShares(shares []int) Option {
	return func(c *config) { c.shares = shares }
}

// Result is the outcome of a Solve.
type Result[T any] struct {
	// Grid holds the computed table; nil only for simulated strategies
	// asked to skip computation (not reachable through public options).
	Grid *Grid[T]

	// Strategy is the executor that ran (Auto resolved).
	Strategy Strategy
	// Pattern is the problem's Table-I pattern; Executed is the canonical
	// pattern the strategy ran after symmetry reduction (simulated
	// strategies only; otherwise equal to the canonical pattern).
	Pattern, Executed Pattern
	// Transfer is the problem's Table-II transfer requirement.
	Transfer TransferKind

	// TSwitch and TShare are the work-division parameters used by the
	// Hetero strategy (zero otherwise).
	TSwitch, TShare int
	// Shares holds the Multi strategy's per-device column spans.
	Shares []int

	// SimTime is the simulated makespan of the
	// Hetero/SimCPU/SimGPU/Multi strategies (zero for native execution);
	// Timeline the corresponding schedule.
	SimTime  time.Duration
	Timeline Timeline
}

// Solve runs the problem through the selected executor. The context is
// polled by every executor — once per tile row by the native strategies
// and by the simulated ones' table fill, once per wavefront by the
// simulated ones' planning; cancellation returns a nil result and a
// *Canceled error. The zero option set solves natively on the tile engine
// with auto-sized workers.
func Solve[T any](ctx context.Context, p *Problem[T], options ...Option) (*Result[T], error) {
	cfg := config{
		strategy: Auto,
		// Negative TSwitch/TShare mean auto-tune in core.Options.
		opts: core.Options{TSwitch: -1, TShare: -1},
	}
	for _, o := range options {
		o(&cfg)
		if cfg.err != nil {
			return nil, cfg.err
		}
	}

	strategy := cfg.strategy
	if strategy == Auto {
		strategy = Parallel
	}

	res := &Result[T]{
		Strategy: strategy,
		Pattern:  core.Classify(p.Deps),
		Transfer: core.TransferNeed(p.Deps),
	}
	res.Executed = res.Pattern

	switch strategy {
	case Sequential:
		g, err := core.SolveContext(ctx, p)
		if err != nil {
			return nil, err
		}
		res.Grid = g
	case Parallel, Async:
		g, err := core.SolveParallelContext(ctx, p, cfg.opts)
		if err != nil {
			return nil, err
		}
		res.Grid = g
	case Tiled:
		tile := cfg.tile
		if tile <= 0 {
			tile = core.DefaultTile(p.BytesPerCell)
		}
		g, err := core.SolveTiledContext(ctx, p, tile, cfg.opts)
		if err != nil {
			return nil, err
		}
		res.Grid = g
	case Hetero, SimCPU, SimGPU:
		solve := core.SolveHeteroContext[T]
		switch strategy {
		case SimCPU:
			solve = core.SolveCPUOnlyContext[T]
		case SimGPU:
			solve = core.SolveGPUOnlyContext[T]
		}
		r, err := solve(ctx, p, cfg.opts)
		if err != nil {
			return nil, err
		}
		res.Grid = r.Grid
		res.Executed = r.Executed
		res.TSwitch, res.TShare = r.TSwitch, r.TShare
		res.SimTime = r.Time
		res.Timeline = r.Timeline
	case Multi:
		if len(cfg.accels) == 0 {
			return nil, fmt.Errorf("lddp: the Multi strategy requires WithAccelerators")
		}
		r, err := core.SolveHeteroMultiContext(ctx, p, cfg.opts, cfg.accels, cfg.shares)
		if err != nil {
			return nil, err
		}
		res.Grid = r.Grid
		res.Executed = Horizontal
		res.Shares = r.Shares
		res.SimTime = r.Timeline.Makespan()
		res.Timeline = r.Timeline
	default:
		return nil, fmt.Errorf("lddp: unknown strategy %d", int(strategy))
	}
	return res, nil
}
