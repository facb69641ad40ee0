package trace

import (
	"sort"
	"time"
)

// Analyzer for recorded event streams: per-worker utilization timelines,
// barrier-stall breakdown per front, and the critical path through the
// front DAG. Works on either a live Recorder's Events() or a stream read
// back with ReadChrome.

// Report is the analyzed view of one trace.
type Report struct {
	Meta   Meta  `json:"meta"`
	SpanNS int64 `json:"span_ns"` // first event start to last event end
	Events int   `json:"events"`

	Workers []LaneReport `json:"workers"`

	// Util is the per-lane utilization timeline: Util[lane][bucket] is
	// the busy fraction of that bucket of the span. Buckets is the bucket
	// count; BucketNS the bucket width.
	Buckets  int         `json:"buckets"`
	BucketNS int64       `json:"bucket_ns"`
	Util     [][]float64 `json:"util"`

	Stall    StallReport    `json:"stall"`
	Queue    QueueReport    `json:"queue"`
	Critical CriticalReport `json:"critical"`
}

// LaneReport aggregates one lane's work.
type LaneReport struct {
	Worker int     `json:"worker"`
	Name   string  `json:"name"`
	BusyNS int64   `json:"busy_ns"`
	Util   float64 `json:"util"`
	Chunks int     `json:"chunks"`
	Cells  int64   `json:"cells"`
}

// StallReport breaks synchronization waits down.
type StallReport struct {
	// BarrierNS is the total time workers spent parked at the epoch
	// barrier; HandoffNS the total time spent waiting for a neighbour's
	// data (KindHandoff spans).
	BarrierNS int64 `json:"barrier_ns"`
	HandoffNS int64 `json:"handoff_ns"`
	// FrontsWithStall counts fronts with at least one barrier wait.
	FrontsWithStall int `json:"fronts_with_stall"`
	// Top lists the worst fronts by accumulated barrier stall.
	Top []FrontStall `json:"top,omitempty"`
}

// QueueReport aggregates the tile engine's KindReady queue-depth samples.
// Zero Samples means the trace carries none (every level-synchronous
// executor).
type QueueReport struct {
	Samples   int     `json:"samples"`
	PeakDepth int64   `json:"peak_depth"`
	AvgDepth  float64 `json:"avg_depth"`
}

// FrontStall is one front's barrier-stall aggregate.
type FrontStall struct {
	Front   int32 `json:"front"`
	StallNS int64 `json:"stall_ns"`
	Waiters int   `json:"waiters"`
	WallNS  int64 `json:"wall_ns"` // front span, 0 if no KindFront event
}

// CriticalReport decomposes the critical path through the front DAG.
//
// For barrier-pool traces the front DAG is a chain — every front waits
// on the previous one — so the path visits every KindFront span;
// each step splits into the longest chunk of that front (compute) and
// the rest of the front's wall (overhead: imbalance + barrier). Fronts
// run inline by the advancing worker contribute their serial time.
//
// Tile-engine traces have no fronts to walk: the busiest lane's task
// time bounds the path from below.
type CriticalReport struct {
	Kind      string `json:"kind"` // "front-chain", "async", "serial" or "none"
	Steps     int    `json:"steps"`
	ComputeNS int64  `json:"compute_ns"`
	StallNS   int64  `json:"stall_ns"`
	InlineNS  int64  `json:"inline_ns"`
	// Top lists the worst steps by overhead.
	Top []CriticalStep `json:"top,omitempty"`
}

// CriticalStep is one step of the critical path.
type CriticalStep struct {
	Front     int32 `json:"front"`
	ComputeNS int64 `json:"compute_ns"`
	StallNS   int64 `json:"stall_ns"`
}

const topN = 5

// busyKind reports whether spans of this kind occupy their lane.
func busyKind(k Kind) bool {
	switch k {
	case KindChunk, KindInline, KindTask, KindPhase, KindXferH2D, KindXferD2H:
		return true
	}
	return false
}

// Analyze computes the full report for an event stream. buckets <= 0
// selects 60 utilization buckets.
func Analyze(meta Meta, events []Event, buckets int) *Report {
	if buckets <= 0 {
		buckets = 60
	}
	rep := &Report{Meta: meta, Events: len(events), Buckets: buckets}
	if len(events) == 0 {
		rep.Critical.Kind = "none"
		return rep
	}

	lo, hi := events[0].TS, int64(0)
	maxLane := 0
	for _, e := range events {
		if e.TS < lo {
			lo = e.TS
		}
		if e.End() > hi {
			hi = e.End()
		}
		if int(e.Worker) > maxLane {
			maxLane = int(e.Worker)
		}
	}
	rep.SpanNS = hi - lo
	if rep.SpanNS <= 0 {
		rep.SpanNS = 1
	}

	// Per-lane busy totals and the bucketed utilization timeline, with a
	// lane for every worker of the solve, even one that ran nothing.
	nLanes := max(maxLane+1, meta.Workers)
	rep.Util = make([][]float64, nLanes)
	for i := range rep.Util {
		rep.Util[i] = make([]float64, buckets)
	}
	rep.BucketNS = (rep.SpanNS + int64(buckets) - 1) / int64(buckets)
	lanes := make([]LaneReport, nLanes)
	for i := range lanes {
		lanes[i] = LaneReport{Worker: i, Name: laneName(meta, i)}
	}
	for _, e := range events {
		if !busyKind(e.Kind) {
			continue
		}
		lr := &lanes[e.Worker]
		lr.BusyNS += e.Dur
		if e.Kind == KindChunk || e.Kind == KindInline || e.Kind == KindTask {
			lr.Chunks++
			lr.Cells += e.B - e.A
		}
		addSpan(rep.Util[e.Worker], lo, rep.BucketNS, e.TS, e.End())
	}
	for i := range lanes {
		lanes[i].Util = float64(lanes[i].BusyNS) / float64(rep.SpanNS)
	}
	rep.Workers = lanes

	rep.Stall = analyzeStall(events)
	rep.Queue = analyzeQueue(events)
	rep.Critical = analyzeCritical(events)
	return rep
}

// analyzeQueue folds the tile engine's ready-queue samples.
func analyzeQueue(events []Event) QueueReport {
	var rep QueueReport
	var sum int64
	for _, e := range events {
		if e.Kind != KindReady {
			continue
		}
		rep.Samples++
		sum += e.A
		if e.A > rep.PeakDepth {
			rep.PeakDepth = e.A
		}
	}
	if rep.Samples > 0 {
		rep.AvgDepth = float64(sum) / float64(rep.Samples)
	}
	return rep
}

// addSpan spreads [s, e) over the bucket array (clamped, proportional).
func addSpan(buckets []float64, lo, width, s, e int64) {
	if width <= 0 || e <= s {
		return
	}
	for b := (s - lo) / width; b < int64(len(buckets)); b++ {
		bLo, bHi := lo+b*width, lo+(b+1)*width
		if s >= bHi {
			continue
		}
		if e <= bLo {
			break
		}
		ov := min64(e, bHi) - max64(s, bLo)
		buckets[b] += float64(ov) / float64(width)
	}
}

func analyzeStall(events []Event) StallReport {
	var rep StallReport
	perFront := map[int32]*FrontStall{}
	for _, e := range events {
		switch e.Kind {
		case KindBarrier:
			rep.BarrierNS += e.Dur
			fs := perFront[e.Front]
			if fs == nil {
				fs = &FrontStall{Front: e.Front}
				perFront[e.Front] = fs
			}
			fs.StallNS += e.Dur
			fs.Waiters++
		case KindHandoff:
			rep.HandoffNS += e.Dur
		case KindFront:
			if fs := perFront[e.Front]; fs != nil {
				fs.WallNS = e.Dur
			} else {
				perFront[e.Front] = &FrontStall{Front: e.Front, WallNS: e.Dur}
			}
		}
	}
	for _, fs := range perFront {
		if fs.StallNS > 0 {
			rep.FrontsWithStall++
			rep.Top = append(rep.Top, *fs)
		}
	}
	sort.Slice(rep.Top, func(i, j int) bool {
		if rep.Top[i].StallNS != rep.Top[j].StallNS {
			return rep.Top[i].StallNS > rep.Top[j].StallNS
		}
		return rep.Top[i].Front < rep.Top[j].Front
	})
	if len(rep.Top) > topN {
		rep.Top = rep.Top[:topN]
	}
	return rep
}

func analyzeCritical(events []Event) CriticalReport {
	// Pool traces carry KindFront spans; tile-engine traces KindTask
	// spans (no front DAG to walk — the busiest lane bounds the path).
	var fronts, inline []Event
	longestChunk := map[int32]int64{}
	taskNS := map[int32]int64{}
	taskSteps := map[int32]int{}
	for _, e := range events {
		switch e.Kind {
		case KindFront:
			fronts = append(fronts, e)
		case KindInline:
			inline = append(inline, e)
		case KindChunk:
			if e.Dur > longestChunk[e.Front] {
				longestChunk[e.Front] = e.Dur
			}
		case KindTask:
			taskNS[e.Worker] += e.Dur
			taskSteps[e.Worker]++
		}
	}
	var rep CriticalReport
	for _, e := range inline {
		rep.InlineNS += e.Dur
	}
	switch {
	case len(fronts) > 0:
		rep.Kind = "front-chain"
		sort.Slice(fronts, func(i, j int) bool { return fronts[i].Front < fronts[j].Front })
		for _, f := range fronts {
			comp := longestChunk[f.Front]
			if comp > f.Dur {
				comp = f.Dur
			}
			stall := f.Dur - comp
			rep.Steps++
			rep.ComputeNS += comp
			rep.StallNS += stall
			rep.Top = append(rep.Top, CriticalStep{Front: f.Front, ComputeNS: comp, StallNS: stall})
		}
		sort.Slice(rep.Top, func(i, j int) bool {
			if rep.Top[i].StallNS != rep.Top[j].StallNS {
				return rep.Top[i].StallNS > rep.Top[j].StallNS
			}
			return rep.Top[i].Front < rep.Top[j].Front
		})
		if len(rep.Top) > topN {
			rep.Top = rep.Top[:topN]
		}
	case len(taskNS) > 0:
		// Tile-engine traces: no materialized fronts. The busiest lane's
		// task time bounds the path from below.
		rep.Kind = "async"
		for w, ns := range taskNS {
			if ns > rep.ComputeNS {
				rep.ComputeNS = ns
				rep.Steps = taskSteps[w]
			}
		}
	case rep.InlineNS > 0:
		rep.Kind = "serial"
	default:
		rep.Kind = "none"
	}
	return rep
}

// Span returns the trace span as a duration.
func (r *Report) Span() time.Duration { return time.Duration(r.SpanNS) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
