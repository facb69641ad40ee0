package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/table"
	"repro/internal/trace"
)

// Persistent worker-pool wavefront runtime: the paper's level-synchronous
// schedule. It runs SolvePool (the baseline the tile engine is measured
// against) and SolveParallel3's planes; the shared scheduler runs tile
// engines instead (NewTileWorkload). A pool is started once per solve:
//
//   - workers pull chunks off the current front through an atomic cursor
//     (dynamic chunking), so ragged fronts from the Inverted-L and
//     Knight-Move patterns balance automatically;
//   - fronts are separated by a reusable epoch barrier — the last worker
//     to arrive advances the front state and releases the others by
//     closing a gate channel (channel close gives the happens-before edge
//     that publishes the new front state);
//   - runs of fronts at or below one chunk are executed inline by the
//     advancing worker without waking anyone: the low-work triangles at
//     the start and end of grow-shrink patterns degenerate to pure serial
//     execution with zero synchronization, the native analogue of the
//     paper's t_switch low-work regions.
//
// Cancellation: the runtime polls the context's done channel at chunk
// granularity (a non-blocking receive per cursor bump, skipped entirely for
// uncancellable contexts). A worker that observes cancellation stops
// claiming chunks and arrives at the barrier as usual; the last arriver
// sees the flag, closes the gate with the stop bit set, and every worker
// exits promptly — the barrier protocol itself is the shutdown path, so no
// goroutine can be left parked. The interrupted solve returns *Canceled.

// defaultNativeChunk is the number of cells a worker claims per cursor
// bump. It doubles as the serial cutoff: fronts that fit in one chunk run
// inline on the advancing worker.
const defaultNativeChunk = 512

// defaultPoolWorkers resolves the pool worker count: the native runtime is
// compute-bound, so the default is capped at the physical core count —
// workers beyond the hardware only lengthen the per-front barrier (every
// extra worker is one more scheduler round-trip per epoch with zero added
// throughput). This is the documented Options.NativeWorkers default:
// min(GOMAXPROCS, NumCPU).
func defaultPoolWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// workerPool is the reusable barrier state shared by the pool workers.
// Front-describing fields (front, size, frontT0) are written only by the
// advancing worker between epochs and published to the others by the gate
// close.
type workerPool struct {
	workers int
	chunk   int64
	fronts  int
	sizeOf  func(t int) int
	run     func(t, lo, hi int)

	done  <-chan struct{} // context done channel; nil = uncancellable
	lanes []*trace.Lane   // per-worker trace lanes; nil = tracer off

	front   int       // current front index
	size    int64     // current front size
	frontT0 time.Time // when the current front opened (tracer on only)

	cursor    atomic.Int64  // next unclaimed cell of the current front
	remaining atomic.Int64  // workers still computing the current front
	canceled  atomic.Bool   // set by any worker that observes ctx done
	gate      chan struct{} // closed to release parked workers into the next epoch
	stop      bool          // set by the advancer before the final gate close
}

// poolConfig bundles the cross-cutting knobs of the pool runtime: the
// executor name (error messages, pprof labels), worker/chunk sizing, and
// the trace recorder. The zero values of workers and chunk select the
// documented defaults.
type poolConfig struct {
	solver  string
	phase   string // pprof label: executed pattern / tile extent / "planes"
	workers int
	chunk   int
	rec     *trace.Recorder
}

// poolLabels builds the pprof label set attached to every pool goroutine,
// so CPU profiles segment by solver, wavefront phase, and worker.
func (cfg *poolConfig) poolLabels(w int) pprof.LabelSet {
	return pprof.Labels(
		"lddp_solver", cfg.solver,
		"lddp_phase", cfg.phase,
		"lddp_worker", strconv.Itoa(w),
	)
}

// runWavefronts executes fronts [0, fronts) of a wavefront space on a
// persistent pool: size(t) is the cell count of front t and run(t, lo, hi)
// computes its cells [lo, hi). run must be safe for concurrent calls on
// disjoint ranges of one front. cfg.workers <= 1 degenerates to a serial
// sweep with no goroutines; cfg.chunk <= 0 selects defaultNativeChunk;
// cfg.workers <= 0 selects the documented default min(GOMAXPROCS, NumCPU).
//
// On cancellation runWavefronts returns *Canceled (solver names the
// interrupted executor in the error); the computed prefix of the table is
// left in place but the caller must treat the solve as failed.
func runWavefronts(ctx context.Context, cfg poolConfig, fronts int, size func(t int) int, run func(t, lo, hi int)) error {
	if fronts <= 0 {
		return nil
	}
	chunk := cfg.chunk
	if chunk <= 0 {
		chunk = defaultNativeChunk
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	done := ctxDone(ctx)
	var lane0 *trace.Lane
	if cfg.rec != nil {
		lane0 = cfg.rec.Lane(0)
	}
	// A front is worth parallelizing only when it exceeds one chunk, so a
	// problem whose widest front fits in a chunk never starts a worker.
	t := 0
	for ; t < fronts; t++ {
		if isDone(done) {
			return canceledErr(ctx, cfg.solver, t)
		}
		s := size(t)
		if workers > 1 && s > chunk {
			break
		}
		if lane0 == nil {
			run(t, 0, s)
		} else {
			t0 := time.Now()
			run(t, 0, s)
			lane0.SpanFrom(trace.KindInline, t, 0, int64(s), t0)
		}
	}
	if t == fronts {
		return nil
	}

	p := &workerPool{
		workers: workers,
		chunk:   int64(chunk),
		fronts:  fronts,
		sizeOf:  size,
		run:     run,
		done:    done,
		front:   t,
		size:    int64(size(t)),
		gate:    make(chan struct{}),
	}
	if cfg.rec != nil {
		p.lanes = make([]*trace.Lane, workers)
		for w := range p.lanes {
			p.lanes[w] = cfg.rec.Lane(w)
		}
		p.frontT0 = time.Now()
	}
	p.remaining.Store(int64(workers))

	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(w int) {
			defer wg.Done()
			pprof.Do(ctx, cfg.poolLabels(w), func(context.Context) { p.work(w) })
		}(i)
	}
	// The caller participates as worker 0 (labels restored by pprof.Do).
	pprof.Do(ctx, cfg.poolLabels(0), func(context.Context) { p.work(0) })
	wg.Wait()

	if p.canceled.Load() {
		return canceledErr(ctx, cfg.solver, p.front)
	}
	return nil
}

// work is the pool worker loop: claim chunks, arrive at the barrier, and
// either advance the epoch (last arriver) or park on the gate.
func (p *workerPool) work(w int) {
	var ln *trace.Lane
	if p.lanes != nil {
		ln = p.lanes[w]
	}
	runSpan := func(kind trace.Kind, t, lo, hi int) {
		if ln == nil {
			p.run(t, lo, hi)
			return
		}
		t0 := time.Now()
		p.run(t, lo, hi)
		ln.SpanFrom(kind, t, int64(lo), int64(hi), t0)
	}
	for {
		// Claim chunks of the current front until the cursor runs past its
		// size. Add returns the cursor after the bump, so lo is the start
		// of the span this worker just claimed. A canceled worker stops
		// claiming and falls through to the barrier — the shutdown rides
		// the normal epoch protocol.
		size := p.size
		for !p.canceled.Load() {
			if isDone(p.done) {
				p.canceled.Store(true)
				break
			}
			lo := p.cursor.Add(p.chunk) - p.chunk
			if lo >= size {
				break
			}
			hi := lo + p.chunk
			if hi > size {
				hi = size
			}
			runSpan(trace.KindChunk, p.front, int(lo), int(hi))
		}

		// Capture the gate and the front before announcing arrival: once
		// remaining hits zero the advancer may swap p.gate for the next
		// epoch, and a worker that loaded the new gate would park for a
		// close that already happened (likewise p.front for the barrier
		// span's front attribution).
		gate := p.gate
		arrivedFront := p.front
		var barrierT0 time.Time
		if ln != nil {
			barrierT0 = time.Now()
		}
		if p.remaining.Add(-1) > 0 {
			<-gate
			if ln != nil {
				ln.SpanFrom(trace.KindBarrier, arrivedFront, 0, 0, barrierT0)
			}
			if p.stop {
				return
			}
			continue
		}

		// Last arriver: advance. A pending cancellation terminates the pool
		// here, with every other worker parked and p.front recording the
		// first front not known to be fully computed. Otherwise fronts at
		// or below one chunk are executed inline — the others are parked,
		// so no synchronization is needed — until a front wide enough to
		// share shows up.
		if p.canceled.Load() {
			p.stop = true
			close(gate)
			return
		}
		if ln != nil {
			// The completed front's wall span, from gate open to last
			// arrival.
			ln.SpanFrom(trace.KindFront, arrivedFront, int64(size), 0, p.frontT0)
		}
		t := p.front + 1
		for ; t < p.fronts; t++ {
			if isDone(p.done) {
				p.canceled.Store(true)
				p.front = t
				p.stop = true
				close(gate)
				return
			}
			s := p.sizeOf(t)
			if s > int(p.chunk) {
				break
			}
			runSpan(trace.KindInline, t, 0, s)
		}
		if t == p.fronts {
			p.stop = true
			close(gate)
			return
		}
		p.front = t
		p.size = int64(p.sizeOf(t))
		if ln != nil {
			p.frontT0 = time.Now()
		}
		p.cursor.Store(0)
		p.remaining.Store(int64(p.workers))
		p.gate = make(chan struct{})
		close(gate) // publishes every write above to the woken workers
	}
}

// SolvePool fills the DP table on the level-synchronous pool: the problem
// is symmetry-reduced to its canonical pattern, each wavefront is split
// into dynamic chunks, and an epoch barrier separates consecutive fronts.
// It is the paper's level-synchronous baseline, kept for the native-pool
// ablation and the barrier-stall comparison; SolveParallel is the faster
// executor. The native-runtime fields of Options apply (NativeWorkers,
// NativeChunk, Tracer); ctx is polled once per chunk claim,
// and a canceled solve returns a nil grid and a *Canceled error whose
// Front is the first front not known to be fully computed.
func SolvePool[T any](ctx context.Context, p *Problem[T], opts Options) (*table.Grid[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	workers := opts.NativeWorkers
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	cp, canonical, _, undo := canonicalize(p)
	w := NewWavefronts(canonical, cp.Rows, cp.Cols)
	g := table.NewGrid[T](cp.Rows, cp.Cols)

	tr := opts.Tracer
	if tr != nil {
		tr.BeginSolve(trace.Meta{
			Solver: "pool", Problem: p.Name,
			Pattern: Classify(p.Deps).String(), Executed: canonical.String(),
			Rows: cp.Rows, Cols: cp.Cols, Fronts: w.Fronts, Workers: workers,
		})
		defer tr.EndSolve()
	}
	cfg := poolConfig{
		solver: "pool", phase: canonical.String(),
		workers: workers, chunk: opts.NativeChunk, rec: tr,
	}
	if err := runWavefronts(ctx, cfg, w.Fronts, w.Size, frontRunner(cp, w, g)); err != nil {
		return nil, err
	}
	return undo(g), nil
}
