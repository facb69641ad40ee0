package trace

// Event-level runtime tracing. The hetsim-facing renderers in this
// package (Gantt, CSV, HTML) display *simulated* schedules; the Recorder
// below captures what the *native* runtime actually did, event by event,
// for the same kind of analysis: per-worker utilization, ready-queue
// depth, and a bound on the critical path.

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSolve spans a whole solve, emitted on lane 0 at EndSolve.
	KindSolve Kind = iota
	// KindHandoff spans a wait for a neighbour's data: a fleet
	// coordinator worker waiting for its next ready block (label
	// halo-wait, Front the block as for its round trip).
	KindHandoff
	// KindPhase spans a named execution phase; Label carries the name.
	// Simulated compute ops import as KindPhase with their device:phase
	// label.
	KindPhase
	// KindXferH2D and KindXferD2H span simulated host<->device transfers;
	// A carries cells, B bytes, Label the transfer label.
	KindXferH2D
	KindXferD2H
	// KindQueue spans the time a scheduler submission spent in the
	// admission queue, from Submit to the moment a worker activated it;
	// A carries the queue depth observed at admission.
	KindQueue
	// KindSteal marks a scheduler worker switching to this solve from a
	// different one (a cross-solve steal); emitted as an instant on the
	// stealing worker's lane. A carries the solve ID.
	KindSteal
	// KindTask spans one tile run by the dependency-driven tile engine
	// (it has no fronts, so the tile is its busy unit). A and B carry a
	// [0, cells) count; Front is the tile's first row in process and its
	// tile index under the scheduler (display only).
	KindTask
	// KindReady is an instant sampling the tile engine's ready queue when
	// a worker takes a tile off it: A carries the queue depth, B the
	// finished-tile count at the sample; Front is as for KindTask.
	KindReady
)

var kindNames = [...]string{
	KindSolve:   "solve",
	KindHandoff: "handoff",
	KindPhase:   "phase",
	KindXferH2D: "h2d",
	KindXferD2H: "d2h",
	KindQueue:   "queue",
	KindSteal:   "steal",
	KindTask:    "task",
	KindReady:   "ready",
}

// String returns the stable lowercase name of the kind, used as the
// Chrome-trace category and round-tripped by ReadChrome.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; unknown names return ok=false.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded runtime event. Events are fixed-size values so
// the hot-path ring write is a single slot store with no allocation.
//
// TS is nanoseconds since the recorder's epoch (wall clocks) or since the
// simulated time origin (imported timelines); Dur is the span length, 0
// for instants. The meaning of A and B depends on Kind (see the Kind
// constants). Label is non-empty only for phase and transfer events and
// always references a static string, so storing it does not allocate.
type Event struct {
	TS     int64  `json:"ts_ns"`
	Dur    int64  `json:"dur_ns"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	Front  int32  `json:"front"`
	Worker int32  `json:"worker"`
	Kind   Kind   `json:"kind"`
	Label  string `json:"label,omitempty"`
}

// End returns the event's end timestamp.
func (e Event) End() int64 { return e.TS + e.Dur }
