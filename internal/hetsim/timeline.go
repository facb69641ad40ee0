package hetsim

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// NoFront marks an operation that is not tagged with a wavefront index.
const NoFront = -1

// OpRecord is one scheduled operation on a Timeline.
type OpRecord struct {
	ID    OpID
	Label string
	// Front is the wavefront index of a per-front operation submitted via
	// SubmitFront, or NoFront. Keeping the index out of Label lets the
	// simulator run label-formatting-free; sinks that want the classic
	// "cpu:p1:t=12" form call FullLabel.
	Front    int
	Resource Resource
	Kind     OpKind
	Start    time.Duration
	End      time.Duration
	Cells    int
	Bytes    int
}

// Duration returns the operation's occupancy on its resource.
func (r OpRecord) Duration() time.Duration { return r.End - r.Start }

// FullLabel materializes the display label, appending the ":t=<front>"
// suffix for front-tagged operations. Only trace sinks should call this;
// aggregation keys on the bare Label so all fronts of one phase group
// together.
func (r OpRecord) FullLabel() string {
	if r.Front <= NoFront {
		return r.Label
	}
	return r.Label + ":t=" + strconv.Itoa(r.Front)
}

// Timeline is the resolved schedule of a simulated execution.
type Timeline struct {
	Records    []OpRecord
	NumStreams int
	// StreamNames holds display names for stream resources, indexed by
	// stream number; empty entries fall back to "streamN".
	StreamNames []string
}

// NameOf returns the display name of a resource on this timeline: the
// fixed resource names for the built-in queues, and the registered stream
// name (when present) for extra streams.
func (t Timeline) NameOf(r Resource) string {
	if r >= numFixedResources {
		idx := int(r - numFixedResources)
		if idx < len(t.StreamNames) && t.StreamNames[idx] != "" {
			return t.StreamNames[idx]
		}
	}
	return r.String()
}

// Makespan returns the end time of the last-finishing operation.
func (t Timeline) Makespan() time.Duration {
	var m time.Duration
	for _, r := range t.Records {
		if r.End > m {
			m = r.End
		}
	}
	return m
}

// BusyTime returns the total occupied time of the given resource.
func (t Timeline) BusyTime(res Resource) time.Duration {
	var b time.Duration
	for _, r := range t.Records {
		if r.Resource == res {
			b += r.Duration()
		}
	}
	return b
}

// CellsOn returns the total number of cells computed on the resource.
func (t Timeline) CellsOn(res Resource) int {
	n := 0
	for _, r := range t.Records {
		if r.Resource == res && r.Kind == OpCompute {
			n += r.Cells
		}
	}
	return n
}

// BytesTransferred returns the total bytes moved by transfer operations,
// summed over both copy directions and any transfer op on stream resources.
func (t Timeline) BytesTransferred() int {
	n := 0
	for _, r := range t.Records {
		if r.Kind == OpTransfer {
			n += r.Bytes
		}
	}
	return n
}

// TransferCount returns the number of transfer operations.
func (t Timeline) TransferCount() int {
	n := 0
	for _, r := range t.Records {
		if r.Kind == OpTransfer {
			n++
		}
	}
	return n
}

// PhaseSpan is the simulated wall-clock span of one execution phase.
type PhaseSpan struct {
	Name string
	Wall time.Duration
}

// Phases returns the span of each execution phase, in the order of each
// phase's first compute op. Compute labels follow the "device:phase"
// convention ("cpu:p1", "gpu:p2", "k20:p1", ...), so the ops of one phase
// group across devices, and a phase's wall time runs from its first op
// start to its last op end. The phase count is the paper's Table-II
// phase structure for the executed pattern: three for anti-diagonal and
// knight-move, two for inverted-L, one for horizontal.
func (t Timeline) Phases() []PhaseSpan {
	var out []PhaseSpan
	var starts, ends []time.Duration
	for _, r := range t.Records {
		if r.Kind != OpCompute {
			continue
		}
		name := r.Label
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		k := 0
		for k < len(out) && out[k].Name != name {
			k++
		}
		if k == len(out) {
			out = append(out, PhaseSpan{Name: name})
			starts = append(starts, r.Start)
			ends = append(ends, r.End)
		}
		starts[k] = min(starts[k], r.Start)
		ends[k] = max(ends[k], r.End)
	}
	for k := range out {
		out[k].Wall = ends[k] - starts[k]
	}
	return out
}

// Resources returns the distinct resources used, sorted.
func (t Timeline) Resources() []Resource {
	seen := map[Resource]bool{}
	for _, r := range t.Records {
		seen[r.Resource] = true
	}
	out := make([]Resource, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a timeline for reporting.
type Stats struct {
	Makespan     time.Duration
	CPUBusy      time.Duration
	GPUBusy      time.Duration
	CopyBusy     time.Duration
	CPUCells     int
	GPUCells     int
	Transfers    int
	BytesMoved   int
	CPUUtil      float64
	GPUUtil      float64
	OverlapRatio float64 // (sum of busy) / makespan; >1 means real overlap
}

// Summarize computes aggregate statistics for the timeline.
func (t Timeline) Summarize() Stats {
	s := Stats{
		Makespan:   t.Makespan(),
		CPUBusy:    t.BusyTime(ResCPU),
		GPUBusy:    t.BusyTime(ResGPU),
		CopyBusy:   t.BusyTime(ResCopyH2D) + t.BusyTime(ResCopyD2H),
		CPUCells:   t.CellsOn(ResCPU),
		GPUCells:   t.CellsOn(ResGPU),
		Transfers:  t.TransferCount(),
		BytesMoved: t.BytesTransferred(),
	}
	if s.Makespan > 0 {
		s.CPUUtil = float64(s.CPUBusy) / float64(s.Makespan)
		s.GPUUtil = float64(s.GPUBusy) / float64(s.Makespan)
		s.OverlapRatio = float64(s.CPUBusy+s.GPUBusy+s.CopyBusy) / float64(s.Makespan)
	}
	return s
}
