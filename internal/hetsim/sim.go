package hetsim

import (
	"fmt"
	"time"
)

// Sim resolves start and end times for a DAG of operations over a set of
// in-order resources.
//
// Scheduling rule: an operation starts at
//
//	max(ready time of its resource, max end time of its dependencies)
//
// and occupies its resource until start+Duration. This is the standard
// list-scheduling semantics of in-order hardware queues (OpenMP parallel
// regions, CUDA streams, DMA engines) and is sufficient to express
// fork/join, kernel serialization, and copy/compute overlap.
//
// A Sim is single-goroutine; the framework drives one Sim per solve.
type Sim struct {
	platform *Platform
	ops      []record
	// resourceReady[r] is the time at which resource r becomes free.
	resourceReady []time.Duration
	numStreams    int
	streamNames   []string
	// lastOp[r] is the most recent operation submitted to resource r.
	lastOp []OpID
}

type record struct {
	op    Op
	start time.Duration
	end   time.Duration
	// front is the wavefront index for per-front operations (SubmitFront),
	// or NoFront for plain submissions. It is carried separately from the
	// label so the hot submission path never formats strings; the full
	// "label:t=front" form is materialized lazily by OpRecord.FullLabel
	// when a trace sink actually renders the timeline.
	front int
	// critParent is the operation whose completion set this op's start
	// time: the latest-ending dependency, or the same-resource predecessor
	// when queue order dominates. NoOp when the op started at time zero.
	critParent OpID
}

// NewSim creates a simulator for the given platform. The platform is only
// consulted for its copy-engine count here; durations are computed by the
// caller (typically via the platform's device models) before submission.
func NewSim(p *Platform) *Sim {
	s := &Sim{
		platform:      p,
		resourceReady: make([]time.Duration, numFixedResources),
		lastOp:        make([]OpID, numFixedResources),
	}
	for i := range s.lastOp {
		s.lastOp[i] = NoOp
	}
	return s
}

// NewNamedStream allocates an additional in-order queue carrying a display
// name, used for extra accelerators in multi-device configurations. The
// name surfaces through Timeline.NameOf.
func (s *Sim) NewNamedStream(name string) Resource {
	r := numFixedResources + Resource(s.numStreams)
	s.numStreams++
	s.resourceReady = append(s.resourceReady, 0)
	s.streamNames = append(s.streamNames, name)
	s.lastOp = append(s.lastOp, NoOp)
	return r
}

// effectiveResource folds the D2H engine onto the H2D engine on platforms
// with a single DMA copy engine, serializing transfers in both directions.
func (s *Sim) effectiveResource(r Resource) Resource {
	if r == ResCopyD2H && s.platform != nil && s.platform.CopyEngines < 2 {
		return ResCopyH2D
	}
	return r
}

// Submit schedules op after the given dependencies and returns its ID.
// NoOp entries in deps are ignored. Submit panics on negative durations,
// unknown resources, or forward references, all of which are programming
// errors in the strategy code.
func (s *Sim) Submit(op Op, deps ...OpID) OpID {
	return s.SubmitFront(op, NoFront, deps...)
}

// SubmitFront is Submit for a per-wavefront operation: front tags the op
// with its wavefront index without formatting it into the label. The tag
// surfaces as OpRecord.Front and is appended to the display label only when
// a trace sink materializes it (OpRecord.FullLabel), which keeps the
// per-iteration submission path free of string formatting — frameworks
// submit two to three ops per front, so a fmt.Sprintf here dominates the
// allocation profile of every simulated sweep.
func (s *Sim) SubmitFront(op Op, front int, deps ...OpID) OpID {
	if op.Duration < 0 {
		panic(fmt.Sprintf("hetsim: negative duration %v for op %q", op.Duration, op.Label))
	}
	res := s.effectiveResource(op.Resource)
	if res < 0 || int(res) >= len(s.resourceReady) {
		panic(fmt.Sprintf("hetsim: unknown resource %d for op %q", int(op.Resource), op.Label))
	}
	if front < 0 {
		front = NoFront
	}
	id := OpID(len(s.ops))
	start := s.resourceReady[res]
	parent := s.lastOnResource(res)
	for _, d := range deps {
		if d == NoOp {
			continue
		}
		if d < 0 || d >= id {
			panic(fmt.Sprintf("hetsim: op %q depends on invalid op %d", op.Label, int(d)))
		}
		if e := s.ops[d].end; e > start {
			start = e
			parent = d
		}
	}
	if parent != NoOp && s.ops[parent].end < start {
		// The resource was free before the constraining dependency ended;
		// keep the dependency as the parent only if it actually set start.
		parent = NoOp
		for _, d := range deps {
			if d != NoOp && s.ops[d].end == start {
				parent = d
				break
			}
		}
		if parent == NoOp {
			if p := s.lastOnResource(res); p != NoOp && s.ops[p].end == start {
				parent = p
			}
		}
	}
	end := start + op.Duration
	s.resourceReady[res] = end
	s.lastOp[res] = id
	op.Resource = res
	s.ops = append(s.ops, record{op: op, start: start, end: end, front: front, critParent: parent})
	return id
}

// Makespan returns the completion time of the last-finishing operation, that
// is, the simulated wall-clock duration of the whole computation.
func (s *Sim) Makespan() time.Duration {
	var m time.Duration
	for _, r := range s.ops {
		if r.end > m {
			m = r.end
		}
	}
	return m
}

// Timeline snapshots the schedule resolved so far. The returned Timeline is
// independent of the Sim and safe to retain.
func (s *Sim) Timeline() Timeline {
	recs := make([]OpRecord, len(s.ops))
	for i, r := range s.ops {
		recs[i] = OpRecord{
			ID:       OpID(i),
			Label:    r.op.Label,
			Front:    r.front,
			Resource: r.op.Resource,
			Kind:     r.op.Kind,
			Start:    r.start,
			End:      r.end,
			Cells:    r.op.Cells,
			Bytes:    r.op.Bytes,
		}
	}
	names := make([]string, len(s.streamNames))
	copy(names, s.streamNames)
	return Timeline{Records: recs, NumStreams: s.numStreams, StreamNames: names}
}

// lastOnResource returns the most recent op on a resource, or NoOp.
func (s *Sim) lastOnResource(r Resource) OpID {
	if int(r) >= len(s.lastOp) {
		return NoOp
	}
	return s.lastOp[r]
}

// CriticalPath returns the chain of operations whose waits compose the
// makespan, from the first op to the last-finishing one. Each op on the
// path started exactly when its predecessor ended (through a dependency
// edge or in-order queueing); gaps appear only before the first op.
func (s *Sim) CriticalPath() []OpRecord {
	if len(s.ops) == 0 {
		return nil
	}
	// Find the last-finishing op.
	last := OpID(0)
	for id := range s.ops {
		if s.ops[id].end > s.ops[last].end {
			last = OpID(id)
		}
	}
	// Walk the chain once to size the path, then fill it back to front.
	n := 0
	for id := last; id != NoOp; id = s.ops[id].critParent {
		n++
	}
	path := make([]OpRecord, n)
	for id := last; id != NoOp; id = s.ops[id].critParent {
		n--
		r := s.ops[id]
		path[n] = OpRecord{
			ID: id, Label: r.op.Label, Front: r.front, Resource: r.op.Resource, Kind: r.op.Kind,
			Start: r.start, End: r.end, Cells: r.op.Cells, Bytes: r.op.Bytes,
		}
	}
	return path
}
