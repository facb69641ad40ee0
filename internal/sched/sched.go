package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/trace"
)

// The execution model, in one paragraph: every admitted solve is a tile
// engine (core.Workload) with its own FIFO of ready tiles, guarded, like
// all scheduler state, by one mutex. A worker pops a ready tile from
// whichever admitted solve has one, preferring the solve it ran last
// (cache affinity) and counting a cross-solve steal when it switches,
// then runs it outside the mutex. Finishing a tile hands back the tiles
// it made ready: the worker keeps the first as its next tile (the
// engine's keep-first continuation, which needs no lock), queues the rest
// on the solve's FIFO and wakes a parked worker for each. Workers park
// only when no admitted solve has a ready tile, so a dependency stall in
// solve A costs A's workers nothing: they pop solve B's tiles until A's
// next tile is ready.

type jobState uint8

const (
	stateQueued jobState = iota
	stateActive
	stateFinal
)

// job is one submission's scheduler state. Immutable fields are set at
// Submit; everything below the marker is guarded by the scheduler mutex.
type job struct {
	id    int64
	seq   int64
	small bool

	wl      *core.Workload
	ctx     context.Context
	ctxDone <-chan struct{}
	tracer  *trace.Recorder
	enq     time.Time
	done    chan struct{}
	left    atomic.Int64 // tiles not yet run; reaching 0 finishes the solve

	// Guarded by Scheduler.mu.
	state    jobState
	err      error
	lanes    []*trace.Lane
	ready    []int32 // FIFO of ready tiles; ready[head:] are not yet taken
	head     int
	running  int // workers inside one of this solve's tiles
	canceled bool
}

// Scheduler is the process-wide solver scheduler: a long-lived shared
// worker pool accepting concurrent solve submissions. Create one with New,
// submit with Submit (or the generic Solve helper), and Close it to drain.
// All methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job // admission queue, picked by score (FIFO + small boost)
	active []*job // solves currently executing
	loads  []WorkerLoad
	stats  Stats // counters only; Stats() fills the instantaneous fields
	nextID int64
	rr     int // round-robin start of the pop scan
	idle   int // workers parked in cond.Wait
	closed bool
	wg     sync.WaitGroup
}

// New starts a Scheduler with cfg.Workers long-lived workers. The
// configuration is validated first; a Scheduler is always returned with a
// nil error otherwise, already accepting submissions.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rcfg := cfg.withDefaults()
	s := &Scheduler{cfg: rcfg, loads: make([]WorkerLoad, rcfg.Workers)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(rcfg.Workers)
	for w := 0; w < rcfg.Workers; w++ {
		go s.worker(w)
	}
	return s, nil
}

// Config returns the resolved configuration (defaults filled in).
func (s *Scheduler) Config() Config { return s.cfg }

// Close stops admission and drains: queued and active solves still run to
// completion (or cancellation), and Close returns once every worker has
// exited. Submissions after Close are rejected with ErrClosed. Close is
// idempotent only in effect — call it once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a point-in-time snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.Active = len(s.active)
	st.Workers = append([]WorkerLoad(nil), s.loads...)
	return st
}

// SubmitOptions are the per-submission knobs.
type SubmitOptions struct {
	// Tracer records this submission's runtime events: the queue wait
	// (KindQueue), tiles run (KindTask), ready-queue pops (KindReady) and
	// cross-solve steals (KindSteal). Lanes index the scheduler's global
	// workers. Nil disables tracing. The tracer must not be read until
	// the submission has finished.
	Tracer *trace.Recorder
}

// Handle tracks one accepted submission.
type Handle struct {
	s *Scheduler
	j *job
}

// ID returns the scheduler-assigned solve ID.
func (h *Handle) ID() int64 { return h.j.id }

// Done returns a channel closed when the submission reaches its end
// state; Err is valid after that.
func (h *Handle) Done() <-chan struct{} { return h.j.done }

// Wait blocks until the submission reaches its end state and returns its
// outcome. If the submission's context ends first, Wait cancels the
// submission (a queued one is rejected immediately; a running one stops
// at tile-row granularity) and still waits for the end state, so the result
// is always one of {nil, *core.Canceled, *Rejected}.
func (h *Handle) Wait() error {
	j := h.j
	select {
	case <-j.done:
	case <-j.ctxDone:
		h.s.cancel(j)
		<-j.done
	}
	return j.err
}

// Submit enqueues a workload for execution. The returned Handle reports
// the outcome; a nil Handle and a *Rejected error mean the submission was
// refused synchronously (queue full, scheduler closed, or the context
// already ended). ctx governs both the queue wait and the run: a deadline
// or cancellation while queued rejects the submission without running it,
// and one mid-run cancels the solve at tile-row granularity.
func (s *Scheduler) Submit(ctx context.Context, wl *core.Workload, opts SubmitOptions) (*Handle, error) {
	if wl == nil || wl.Run == nil || wl.Tiles <= 0 || len(wl.Sources) == 0 {
		return nil, fmt.Errorf("sched: invalid workload")
	}
	j := &job{
		wl:      wl,
		ctx:     ctx,
		ctxDone: ctxDoneChan(ctx),
		tracer:  opts.Tracer,
		enq:     time.Now(),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	s.nextID++
	j.id = s.nextID
	j.seq = s.nextID
	j.small = wl.TotalCells <= DefaultSmallCells
	if reason := s.refusalLocked(j); reason != nil {
		depth := len(s.queue)
		s.stats.Rejected++
		s.mu.Unlock()
		return nil, &Rejected{ID: j.id, QueueDepth: depth, Err: reason}
	}
	s.queue = append(s.queue, j)
	s.stats.Submitted++
	if d := len(s.queue); d > s.stats.PeakQueueDepth {
		s.stats.PeakQueueDepth = d
	}
	s.cond.Signal()
	s.mu.Unlock()
	return &Handle{s: s, j: j}, nil
}

// refusalLocked returns the reason a new submission cannot be queued, or
// nil if it can.
func (s *Scheduler) refusalLocked(j *job) error {
	if s.closed {
		return ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueBound {
		return ErrQueueFull
	}
	if isDone(j.ctxDone) {
		return ctxCause(j.ctx)
	}
	return nil
}

// Solve submits p to the scheduler as a tile engine at the scheduler's
// worker count and waits for the computed grid: the scheduler-side
// analogue of core.SolveParallelContext. The error is nil,
// *core.Canceled, *Rejected, or a validation error from the problem
// itself.
func Solve[T any](ctx context.Context, s *Scheduler, p *core.Problem[T], opts SubmitOptions) (*table.Grid[T], error) {
	wl, finish, err := core.NewTileWorkload(ctx, p, s.cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	h, err := s.Submit(ctx, wl, opts)
	if err != nil {
		return nil, err
	}
	if err := h.Wait(); err != nil {
		return nil, err
	}
	return finish(), nil
}

// cancel transitions a submission toward its end state after its context
// ended: a queued submission is rejected on the spot (it never ran), an
// active one is marked canceled and finalized once its in-flight tiles
// drain (the last worker out of one notices).
func (s *Scheduler) cancel(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case stateQueued:
		s.finalizeLocked(j, &Rejected{ID: j.id, QueueDepth: len(s.queue) - 1, Err: ctxCause(j.ctx)})
	case stateActive:
		j.canceled = true
		if j.running == 0 {
			s.finalizeLocked(j, s.canceledErr(j))
		}
	}
}

// worker is the shared pool worker loop: admit, pop a ready tile, run it
// and its continuations — parking only when no admitted solve has a
// ready tile.
func (s *Scheduler) worker(w int) {
	defer s.wg.Done()
	var last *job // affinity: the solve this worker last ran a tile of
	// The tiles a finished tile readies. Run is an indirect call, so a
	// buffer declared per run would move to the heap on every pop.
	ready := new([4]int32)
	s.mu.Lock()
	for {
		s.sweepLocked()
		if len(s.queue) > 0 && len(s.active) < s.cfg.MaxActive {
			if j := s.admitLocked(w); j != nil {
				last = j
			}
			continue
		}
		if j, t := s.popLocked(w, last); j != nil {
			last = j
			j.running++
			s.mu.Unlock()
			s.run(w, j, t, ready)
			continue
		}
		if s.closed && len(s.queue) == 0 && len(s.active) == 0 {
			break
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
	s.mu.Unlock()
}

// run executes the ready tile t of j on worker w, then every tile the
// keep-first continuation hands back, queueing the other tiles each one
// makes ready. It is called without the mutex and returns holding it.
func (s *Scheduler) run(w int, j *job, t int32, ready *[4]int32) {
	var load WorkerLoad
	canceled := false
	for {
		t0 := time.Now()
		cells, n, ok := j.wl.Run(t, ready)
		if !ok {
			canceled = true
			break
		}
		load.Tiles++
		load.Cells += int64(cells)
		load.Busy += time.Since(t0)
		if j.lanes != nil {
			// Recorded before the tile counts as run: the finalizer
			// closes the tracer once the count reaches zero.
			j.lanes[w].SpanFrom(trace.KindTask, int(t), 0, int64(cells), t0)
		}
		if j.left.Add(-1) == 0 || n == 0 {
			break
		}
		if n > 1 {
			s.mu.Lock()
			j.ready = append(j.ready, ready[1:n]...)
			s.wakeLocked(n - 1)
			s.mu.Unlock()
		}
		t = ready[0]
	}
	s.mu.Lock()
	s.loads[w].Tiles += load.Tiles
	s.loads[w].Cells += load.Cells
	s.loads[w].Busy += load.Busy
	j.running--
	if j.state != stateActive {
		return
	}
	if j.left.Load() == 0 {
		s.finalizeLocked(j, nil)
		return
	}
	if canceled || j.canceled || isDone(j.ctxDone) {
		j.canceled = true
		if j.running == 0 {
			s.finalizeLocked(j, s.canceledErr(j))
		}
	}
}

// wakeLocked wakes up to n parked workers for newly queued tiles.
func (s *Scheduler) wakeLocked(n int) {
	for k := min(n, s.idle); k > 0; k-- {
		s.cond.Signal()
	}
}

// sweepLocked retires active solves whose context ended while no worker
// was inside one of their tiles (nobody would otherwise notice a dead
// solve that no worker is touching).
func (s *Scheduler) sweepLocked() {
	for i := 0; i < len(s.active); {
		j := s.active[i]
		if j.running == 0 && (j.canceled || isDone(j.ctxDone)) {
			j.canceled = true
			s.finalizeLocked(j, s.canceledErr(j))
			continue // finalize swap-removed index i; re-examine it
		}
		i++
	}
}

// admitLocked activates the best queued submission, discarding queued
// submissions whose context already ended. Returns the admitted job, or
// nil when the queue held only dead entries.
func (s *Scheduler) admitLocked(w int) *job {
	for {
		j := s.pickLocked()
		if j == nil {
			return nil
		}
		if isDone(j.ctxDone) {
			s.finalizeLocked(j, &Rejected{ID: j.id, QueueDepth: len(s.queue), Err: ctxCause(j.ctx)})
			continue
		}
		s.activateLocked(j, w)
		return j
	}
}

// pickLocked removes and returns the queued submission with the smallest
// admission score: arrival order, minus a bounded jump for small solves.
// A large solve is therefore passed by at most the small solves arriving
// within DefaultSmallBoost positions of it — FIFO with bounded
// inversion, never starvation.
func (s *Scheduler) pickLocked() *job {
	if len(s.queue) == 0 {
		return nil
	}
	best := 0
	bestKey := s.queue[0].score()
	for i := 1; i < len(s.queue); i++ {
		if k := s.queue[i].score(); k < bestKey {
			best, bestKey = i, k
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return j
}

// score is the admission priority key (smaller runs sooner).
func (j *job) score() int64 {
	if j.small {
		return j.seq - DefaultSmallBoost
	}
	return j.seq
}

// activateLocked moves a picked submission into the running set, counts
// its admission and queue wait, opens its trace, and queues its source
// tiles.
func (s *Scheduler) activateLocked(j *job, w int) {
	j.state = stateActive
	s.active = append(s.active, j)
	if a := len(s.active); a > s.stats.PeakActive {
		s.stats.PeakActive = a
	}
	s.stats.Started++
	s.stats.QueueWait.Observe(time.Since(j.enq).Nanoseconds())
	if j.tracer != nil {
		meta := j.wl.Info
		meta.Workers = s.cfg.Workers
		j.tracer.BeginSolve(meta)
		j.lanes = make([]*trace.Lane, s.cfg.Workers)
		for i := range j.lanes {
			j.lanes[i] = j.tracer.Lane(i)
		}
		j.lanes[w].SpanFrom(trace.KindQueue, -1, int64(len(s.queue)), 0, j.enq)
	}
	j.left.Store(int64(j.wl.Tiles))
	j.ready = j.wl.Sources
	s.wakeLocked(len(j.ready))
}

// popLocked hands worker w a ready tile: from the solve it last ran if
// that still has one (cache affinity), otherwise from the next solve with
// one, round-robin — a cross-solve steal.
func (s *Scheduler) popLocked(w int, last *job) (*job, int32) {
	j := last
	if j == nil || !poppable(j) {
		j = nil
		for k, n := 0, len(s.active); k < n; k++ {
			if cand := s.active[(s.rr+k)%n]; poppable(cand) {
				s.rr = (s.rr + k + 1) % n
				j = cand
				break
			}
		}
		if j == nil {
			return nil, 0
		}
		if last != nil && last.state == stateActive {
			s.stats.Steals++
			if j.lanes != nil {
				j.lanes[w].Instant(trace.KindSteal, -1, j.id, 0)
			}
		}
	}
	t := j.ready[j.head]
	j.head++
	if j.head == len(j.ready) {
		j.ready, j.head = j.ready[:0], 0
	}
	if j.lanes != nil {
		j.lanes[w].Instant(trace.KindReady, int(t), int64(len(j.ready)-j.head), int64(j.wl.Tiles)-j.left.Load())
	}
	return j, t
}

// poppable reports whether a solve has a ready tile to hand out. Pure —
// the cancellation sweep is sweepLocked's job.
func poppable(j *job) bool {
	return j.state == stateActive && !j.canceled && j.head < len(j.ready)
}

// finalizeLocked moves j to its end state: removes it from its set,
// counts the outcome, closes its trace, and — strictly last, so waiters
// observe a quiescent tracer — releases waiters by closing j.done.
func (s *Scheduler) finalizeLocked(j *job, err error) {
	wasActive := j.state == stateActive
	switch j.state {
	case stateQueued:
		s.queue = removeJob(s.queue, j)
	case stateActive:
		s.active = removeJob(s.active, j)
	}
	j.state = stateFinal
	j.err = err
	switch err.(type) {
	case nil:
		s.stats.Done++
		// j.enq is the Submit timestamp: the latency runs end to end,
		// queue wait included.
		s.stats.SolveLatency.Observe(time.Since(j.enq).Nanoseconds())
	case *Rejected:
		s.stats.Rejected++
	default:
		s.stats.Canceled++
	}
	if wasActive && j.tracer != nil {
		j.tracer.EndSolve()
	}
	close(j.done)
	s.cond.Broadcast()
}

// removeJob removes j from list by swap (order is irrelevant: the queue
// is picked by score, the active set scanned round-robin).
func removeJob(list []*job, j *job) []*job {
	for i, q := range list {
		if q == j {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// canceledErr builds the *core.Canceled of an interrupted solve; Front is
// the first row holding an unfinished tile.
func (s *Scheduler) canceledErr(j *job) error {
	front := 0
	if j.wl.Front != nil {
		front = j.wl.Front()
	}
	return &core.Canceled{Solver: "sched", Front: front, Err: ctxCause(j.ctx)}
}

// ctxCause returns the context's cause, defaulting to context.Canceled.
func ctxCause(ctx context.Context) error {
	if ctx == nil {
		return context.Canceled
	}
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return context.Canceled
}

// ctxDoneChan returns the context's done channel; nil contexts (and
// contexts that can never be canceled) yield nil, which blocks forever in
// selects and makes every poll free.
func ctxDoneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// isDone is a non-blocking poll of a done channel; nil is never done.
func isDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
