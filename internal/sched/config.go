// Package sched implements the process-wide solver scheduler: one
// long-lived worker pool shared by many concurrent LDDP solves.
//
// An in-process solve spins its workers up and tears them down on every
// call, and a worker of one solve idles whenever that solve's next tile
// waits on a neighbour. The scheduler inverts the structure, following
// the pipelined/processor-aware DP scheduling line of work (Matsumae &
// Miyazaki; Tang): workers are started once per scheduler, every
// submission runs as a tile engine (core.NewTileWorkload) at the
// scheduler's worker count, and workers pop ready tiles from *whichever*
// admitted solve has one, so one solve's dependency stalls are covered by
// another solve's tiles. A worker keeps the engine's keep-first
// continuation within a solve, steals from solve B when solve A has no
// ready tile, and only parks when no admitted solve has one. On one
// worker a solve is a single whole-table tile, so solves there run one
// after another rather than interleaved.
//
// Admission control protects the pool: submissions wait in a bounded FIFO
// queue (overflow is a typed *Rejected error, not a block), a submission
// whose context expires while still queued is rejected without running,
// and small solves may jump a bounded number of queue positions so an 8k
// x 8k table does not starve interactive-sized tables (fairness is
// preserved: the jump is bounded, so every submission is admitted after
// at most DefaultSmallBoost later-arriving small solves).
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Config field ceilings enforced by Validate. Values past these are
// configuration mistakes rather than tuning choices and are rejected, not
// clamped: a silent clamp would hide the mistake from the service
// operator.
const (
	// MaxWorkers bounds the shared pool size.
	MaxWorkers = 1 << 10
	// MaxQueueBound bounds the admission queue depth.
	MaxQueueBound = 1 << 20
	// MaxActiveBound bounds the concurrently-executing solve count.
	MaxActiveBound = 1 << 14
)

const (
	// DefaultQueueBound is the admission queue depth a zero or negative
	// QueueBound selects.
	DefaultQueueBound = 256
	// DefaultSmallCells is the cell count at or below which a submission
	// counts as small for admission priority (a 256 x 256 table).
	DefaultSmallCells = 1 << 16
	// DefaultSmallBoost is the number of queue positions a small
	// submission may jump. Fairness bound: a large submission is passed
	// by at most the small solves that arrive within DefaultSmallBoost
	// positions of it.
	DefaultSmallBoost = 8
)

// Config configures a Scheduler. The zero value selects all defaults:
// min(GOMAXPROCS, NumCPU) workers, twice that many concurrently active
// solves and a 256-deep admission queue. Small-solve priority is fixed:
// a solve of at most DefaultSmallCells cells overtakes the large solves
// that arrived fewer than DefaultSmallBoost positions before it.
type Config struct {
	// Workers is the shared pool size, and the worker count every
	// submission's tile shape is cut for. <= 0 selects
	// min(runtime.GOMAXPROCS(0), runtime.NumCPU()), the same default as
	// an in-process solve.
	Workers int

	// QueueBound is the admission queue depth; a Submit that would exceed
	// it returns a *Rejected wrapping ErrQueueFull. <= 0 selects
	// DefaultQueueBound.
	QueueBound int

	// MaxActive is the maximum number of solves executing concurrently.
	// More active solves than workers keeps workers busy across one
	// solve's dependency stalls, so the default is 2*Workers. <= 0
	// selects the default.
	MaxActive int
}

// Validate checks the configuration. Zero and negative values are legal
// (they select the documented defaults); values beyond the Max ceilings
// return an error. Validate never panics for any input.
func (c Config) Validate() error {
	if c.Workers > MaxWorkers {
		return fmt.Errorf("sched: Workers %d exceeds limit %d", c.Workers, MaxWorkers)
	}
	if c.QueueBound > MaxQueueBound {
		return fmt.Errorf("sched: QueueBound %d exceeds limit %d", c.QueueBound, MaxQueueBound)
	}
	if c.MaxActive > MaxActiveBound {
		return fmt.Errorf("sched: MaxActive %d exceeds limit %d", c.MaxActive, MaxActiveBound)
	}
	return nil
}

// withDefaults resolves zero/negative fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if c.QueueBound <= 0 {
		c.QueueBound = DefaultQueueBound
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 2 * c.Workers
	}
	return c
}

// Rejection causes, surfaced through Rejected.Err (use errors.Is on the
// returned error).
var (
	// ErrQueueFull: the admission queue was at QueueBound.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrClosed: the scheduler had been closed.
	ErrClosed = errors.New("sched: scheduler closed")
)

// Rejected is the error of a submission that was refused admission and
// never ran: the queue was full, the scheduler was closed, or the
// submission's context ended while it was still queued (Err then wraps
// the context cause). A solve interrupted *after* admission returns
// *core.Canceled instead — the two types partition the non-success
// outcomes into "never ran" and "partially ran".
type Rejected struct {
	// ID is the submission's scheduler-assigned ID (0 when rejected
	// before one was assigned).
	ID int64
	// QueueDepth is the admission-queue depth observed at rejection.
	QueueDepth int
	// Err is the cause: ErrQueueFull, ErrClosed, or the submission
	// context's cause for queue expiry.
	Err error
}

func (r *Rejected) Error() string {
	return fmt.Sprintf("sched: submission %d rejected (queue depth %d): %v", r.ID, r.QueueDepth, r.Err)
}

// Unwrap exposes the cause for errors.Is chains.
func (r *Rejected) Unwrap() error { return r.Err }

// Stats is a point-in-time snapshot of a Scheduler's counters.
type Stats struct {
	// Submitted counts accepted submissions; Rejected refused ones
	// (including queue expiries). Started counts admissions, and Done and
	// Canceled finished admitted solves. Submitted = Done + Canceled +
	// queued + active + (Rejected - synchronous rejections).
	Submitted, Started, Done, Canceled, Rejected int64
	// Steals counts cross-solve steals: a worker popping a tile from a
	// different solve than the one it ran last while both were admitted.
	Steals int64
	// QueueDepth and Active are the instantaneous queue and running-set
	// sizes; PeakQueueDepth and PeakActive their high-water marks.
	QueueDepth, Active         int
	PeakQueueDepth, PeakActive int
	// QueueWait histograms the time in queue of every admitted
	// submission; SolveLatency the submit-to-done latency of every
	// successful solve.
	QueueWait, SolveLatency Hist
	// Workers reports each worker's cumulative load across all solves.
	Workers []WorkerLoad
}

// HistBoundsNS are the inclusive upper bounds of every Hist's buckets:
// powers of four from 1µs to ~16.8s, a range wide enough to resolve both
// sub-millisecond admission waits and multi-second solves.
var HistBoundsNS = [13]int64{
	1e3, 4e3, 16e3, 64e3, 256e3, 1024e3, 4096e3,
	16384e3, 65536e3, 262144e3, 1048576e3, 4194304e3, 16777216e3,
}

// Hist is a fixed-bound duration histogram over HistBoundsNS. Counts has
// one entry per bound plus a final overflow bucket, so the cumulative
// Prometheus rendering (le="...", le="+Inf") falls out by prefix-summing
// Counts.
type Hist struct {
	// BoundsNS holds HistBoundsNS once the histogram has an observation.
	BoundsNS [len(HistBoundsNS)]int64 `json:"bounds_ns"`
	// Counts[i] counts observations <= BoundsNS[i] (and > BoundsNS[i-1]);
	// the final extra entry counts overflows.
	Counts [len(HistBoundsNS) + 1]int64 `json:"counts"`
	// Count and SumNS are the marginals; MaxNS the largest observation.
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
}

// Observe adds one duration, in nanoseconds, to the histogram.
func (h *Hist) Observe(ns int64) {
	if h.Count == 0 {
		h.BoundsNS = HistBoundsNS
	}
	i := 0
	for i < len(HistBoundsNS) && ns > HistBoundsNS[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.SumNS += ns
	h.MaxNS = max(h.MaxNS, ns)
}

// WorkerLoad is one scheduler worker's cumulative load.
type WorkerLoad struct {
	// Tiles counts the tiles run; Cells the cells computed; Busy the
	// time inside the tile kernel.
	Tiles, Cells int64
	Busy         time.Duration
}
