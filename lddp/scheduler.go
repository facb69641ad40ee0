package lddp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// Scheduler is the process-wide shared solve scheduler (alias of the
// internal sched type): one long-lived worker pool serving many
// concurrent solve submissions, interleaving ready tiles of different
// solves on the same workers with bounded-FIFO admission control. Create
// one with NewScheduler, submit problems with Submit, and Close it to
// drain.
//
// Use a Scheduler instead of concurrent Solve calls when many solves
// share one process: N concurrent Solve calls each spin up their own
// workers and idle them on their own dependency stalls, while a
// Scheduler covers one solve's stalls with another solve's ready tiles.
type Scheduler = sched.Scheduler

// SchedulerStats is a point-in-time snapshot of a Scheduler's counters.
type SchedulerStats = sched.Stats

// SchedulerWorkerLoad is one scheduler worker's cumulative load.
type SchedulerWorkerLoad = sched.WorkerLoad

// Rejected is the error of a submission that never ran: queue full,
// scheduler closed, or its context ended while still queued. A solve
// interrupted after admission returns *Canceled instead; together with a
// nil error the three cases partition every submission's outcome.
type Rejected = sched.Rejected

// Rejection causes, surfaced through Rejected (use errors.Is).
var (
	// ErrQueueFull: the admission queue was at its bound.
	ErrQueueFull = sched.ErrQueueFull
	// ErrSchedulerClosed: the scheduler had been closed.
	ErrSchedulerClosed = sched.ErrClosed
)

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*sched.Config)

// WithSchedulerWorkers sets the shared pool size; zero or negative
// selects min(GOMAXPROCS, NumCPU).
func WithSchedulerWorkers(n int) SchedulerOption {
	return func(c *sched.Config) { c.Workers = n }
}

// WithSchedulerQueue sets the admission queue depth; a Submit that would
// exceed it is rejected with ErrQueueFull. Zero or negative selects the
// default (256).
func WithSchedulerQueue(n int) SchedulerOption {
	return func(c *sched.Config) { c.QueueBound = n }
}

// WithSchedulerMaxActive caps the solves executing concurrently; zero or
// negative selects twice the worker count.
func WithSchedulerMaxActive(n int) SchedulerOption {
	return func(c *sched.Config) { c.MaxActive = n }
}

// NewScheduler starts a shared solve scheduler. The zero option set uses
// all defaults; out-of-range values are reported as an error, never
// clamped or panicked on.
func NewScheduler(options ...SchedulerOption) (*Scheduler, error) {
	var cfg sched.Config
	for _, o := range options {
		o(&cfg)
	}
	return sched.New(cfg)
}

// Submission tracks one accepted scheduler submission of a typed problem.
type Submission[T any] struct {
	h      *sched.Handle
	finish func() *Grid[T]
}

// ID returns the scheduler-assigned solve ID.
func (s *Submission[T]) ID() int64 { return s.h.ID() }

// Done returns a channel closed when the submission reaches its end
// state; Wait is then non-blocking.
func (s *Submission[T]) Done() <-chan struct{} { return s.h.Done() }

// Wait blocks until the submission finishes and returns the computed
// grid. The error is nil (grid valid), *Canceled (interrupted mid-run),
// or *Rejected (never ran); on error the grid is nil.
func (s *Submission[T]) Wait() (*Grid[T], error) {
	if err := s.h.Wait(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// Submit enqueues a problem on the shared scheduler. Only the Auto,
// Parallel and Async strategies can run there, and all three run the same
// way: the problem is built once as a dependency-driven tile engine, cut
// for the scheduler's worker count exactly as Solve cuts it for
// WithWorkers, and scheduler workers pop its ready tiles alongside those
// of every other admitted solve. The per-solve option honored is
// WithTracer (a per-submission Tracer recording queue wait, tiles, and
// steals); WithWorkers is ignored, because the scheduler owns the pool
// and the tile shape. Scheduler-wide counters are in Stats.
//
// A nil error means the submission was accepted; its outcome arrives via
// the Submission. A *Rejected error means it was refused synchronously
// (queue full, scheduler closed, or the context already ended). ctx
// governs both the queue wait and the run: expiry while queued rejects
// the submission without running it, expiry mid-run cancels the solve at
// tile-row granularity.
func Submit[T any](ctx context.Context, s *Scheduler, p *Problem[T], options ...Option) (*Submission[T], error) {
	return SubmitInto(ctx, s, p, nil, options...)
}

// SubmitInto is Submit computing into cells, the caller's row-major
// storage of exactly p.Rows*p.Cols cells, which the returned grid is
// built over; nil allocates a fresh grid, which is Submit. The old
// values in cells are never read: every cell is written before any cell
// reads it. Only a successful Wait hands cells back: the caller may
// reuse them once Wait returns the grid. A failed Wait promises nothing
// about workers still inside the table, so after one the caller leaves
// cells to the garbage collector.
func SubmitInto[T any](ctx context.Context, s *Scheduler, p *Problem[T], cells []T, options ...Option) (*Submission[T], error) {
	cfg := config{strategy: Auto, opts: core.Options{TSwitch: -1, TShare: -1}}
	for _, o := range options {
		o(&cfg)
		if cfg.err != nil {
			return nil, cfg.err
		}
	}
	if cfg.strategy != Auto && cfg.strategy != Parallel && cfg.strategy != Async {
		return nil, fmt.Errorf("lddp: the %s strategy cannot run on the shared scheduler (only Auto, Parallel and Async)", cfg.strategy)
	}
	if err := cfg.opts.Validate(); err != nil {
		return nil, err
	}
	wl, finish, err := core.NewTileWorkload(ctx, p, s.Config().Workers, cells)
	if err != nil {
		return nil, err
	}
	h, err := s.Submit(ctx, wl, sched.SubmitOptions{Tracer: cfg.opts.Tracer})
	if err != nil {
		return nil, err
	}
	return &Submission[T]{h: h, finish: finish}, nil
}

// SolveOn submits p and waits: the scheduler-routed equivalent of Solve
// with the Parallel strategy.
func SolveOn[T any](ctx context.Context, s *Scheduler, p *Problem[T], options ...Option) (*Grid[T], error) {
	sub, err := Submit(ctx, s, p, options...)
	if err != nil {
		return nil, err
	}
	return sub.Wait()
}
