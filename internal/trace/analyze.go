package trace

import "time"

// Analyzer for recorded event streams: per-worker utilization timelines,
// hand-off waits, the tile engine's ready-queue depth, and a lower bound
// on the critical path. Works on either a live Recorder's Events() or a
// stream read back with ReadChrome.

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
	Chunks int     `json:"chunks"` // tile tasks run
	Cells  int64   `json:"cells"`
}

// StallReport breaks synchronization waits down.
type StallReport struct {
	// HandoffNS is the total time spent waiting for a neighbour's data
	// (KindHandoff spans).
	HandoffNS int64 `json:"handoff_ns"`
}

// QueueReport aggregates the tile engine's KindReady queue-depth samples.
// Zero Samples means the trace carries none (a simulated or fleet trace).
type QueueReport struct {
	Samples   int     `json:"samples"`
	PeakDepth int64   `json:"peak_depth"`
	AvgDepth  float64 `json:"avg_depth"`
}

// CriticalReport bounds the critical path of a tile-engine trace from
// below. The engine runs a DAG of tiles with no fronts to walk, so the
// busiest lane's task time stands in for the path: Steps is that lane's
// tile count and ComputeNS its task time.
type CriticalReport struct {
	Kind      string `json:"kind"` // "async", or "none" without tile tasks
	Steps     int    `json:"steps"`
	ComputeNS int64  `json:"compute_ns"`
}

// busyKind reports whether spans of this kind occupy their lane.
func busyKind(k Kind) bool {
	switch k {
	case KindTask, KindPhase, KindXferH2D, KindXferD2H:
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
		if e.Kind == KindTask {
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
	for _, e := range events {
		if e.Kind == KindHandoff {
			rep.HandoffNS += e.Dur
		}
	}
	return rep
}

func analyzeCritical(events []Event) CriticalReport {
	taskNS := map[int32]int64{}
	taskSteps := map[int32]int{}
	for _, e := range events {
		if e.Kind == KindTask {
			taskNS[e.Worker] += e.Dur
			taskSteps[e.Worker]++
		}
	}
	rep := CriticalReport{Kind: "none"}
	for w, ns := range taskNS {
		rep.Kind = "async"
		if ns > rep.ComputeNS {
			rep.ComputeNS = ns
			rep.Steps = taskSteps[w]
		}
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
