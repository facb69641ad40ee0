package lddp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sync"

	"repro/internal/sched"
)

// Metrics is the read-only metrics view of one Scheduler: Snapshot
// reads the scheduler's Stats at call time, so the view holds no state
// of its own and costs the scheduler nothing between scrapes. lddpd
// extends the snapshot with its cache, wire, process and fleet sections
// at scrape time. Per-solve numbers come from what records them: a
// Tracer (AnalyzeTrace) for native solves, Result.Timeline for the
// simulated ones. The zero Metrics views no scheduler and reports zeros.
type Metrics struct {
	s *Scheduler
}

// NewMetrics returns the metrics view of s.
func NewMetrics(s *Scheduler) *Metrics { return &Metrics{s: s} }

// MetricsSnapshot is the aggregate view of a Metrics. All durations are
// nanoseconds, so the document round-trips through JSON without float
// loss.
type MetricsSnapshot struct {
	// Solves counts the admitted solves that finished, Errors those that
	// were canceled mid-run.
	Solves int64 `json:"solves"`
	Errors int64 `json:"errors"`

	// Sched reports the scheduler's lifecycle counters.
	Sched SchedSnapshot `json:"sched,omitzero"`

	// Cache reports the lddpd result cache when the snapshot comes from
	// the server's /metrics endpoint; zero elsewhere (the cache lives in
	// internal/server and fills this section at scrape time).
	Cache CacheSnapshot `json:"cache,omitzero"`

	// Wire reports the lddpd codec counters (JSON vs binary frame
	// traffic) when the snapshot comes from /metrics; zero elsewhere.
	Wire WireSnapshot `json:"wire,omitzero"`

	// Server reports lddpd process-level gauges (in-flight solves, drain
	// state, trace-ring drops) filled at /metrics scrape time; zero
	// elsewhere.
	Server ServerSnapshot `json:"server,omitzero"`

	// Fleet reports the fleet coordinator's counters on nodes running
	// one (-peers); zero elsewhere.
	Fleet FleetSnapshot `json:"fleet,omitzero"`
}

// ServerSnapshot is the lddpd process section of a server metrics
// snapshot.
type ServerSnapshot struct {
	// InflightSolves is the number of requests currently holding an
	// admission slot; Draining is 1 once drain began, else 0.
	InflightSolves int64 `json:"inflight_solves"`
	Draining       int64 `json:"draining"`
	// TraceDroppedEvents totals trace-ring overwrites across every
	// traced solve on this node — non-zero means timelines are missing
	// their oldest events and -tracedir analysis is partial.
	TraceDroppedEvents int64 `json:"trace_dropped_events"`
	// TraceSolves counts trace files written.
	TraceSolves int64 `json:"trace_solves"`
}

// FleetSnapshot is the band-fleet coordinator section of a server
// metrics snapshot.
type FleetSnapshot struct {
	// Solves counts completed fleet solves; Blocks the block round trips
	// they issued; Relocations the blocks retried on a different node
	// after a relocatable failure.
	Solves      int64 `json:"solves"`
	Blocks      int64 `json:"blocks"`
	Relocations int64 `json:"relocations"`
	// HaloValues and HaloBytes total the halo values sliced into band
	// requests and their encoded volume (8 bytes per value).
	HaloValues int64 `json:"halo_values"`
	HaloBytes  int64 `json:"halo_bytes"`
}

// CacheSnapshot is the lddpd result-cache section of a server metrics
// snapshot: a bounded, size-aware LRU keyed on the declarative workload
// tuple (DESIGN.md §11).
type CacheSnapshot struct {
	// Hits, Misses and Bypasses count lookups: served from cache, not
	// present, and skipped because the request carried
	// Cache-Control: no-cache.
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Bypasses int64 `json:"bypasses"`
	// Stores counts insertions; Evictions entries dropped under size
	// pressure.
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	// Entries and Bytes are the current population; CapacityBytes the
	// configured bound.
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// WireSnapshot counts lddpd requests and responses per codec, plus
// binary frames the decoder refused.
type WireSnapshot struct {
	JSONRequests    int64 `json:"json_requests"`
	BinaryRequests  int64 `json:"binary_requests"`
	JSONResponses   int64 `json:"json_responses"`
	BinaryResponses int64 `json:"binary_responses"`
	// BinaryRejects counts binary request bodies the frame decoder
	// refused (truncated, wrong version, digest mismatch).
	BinaryRejects int64 `json:"binary_rejects"`
	// RequestBytes and ResponseBytes total the solve and band-solve body
	// bytes read and written, across both codecs.
	RequestBytes  int64 `json:"request_bytes"`
	ResponseBytes int64 `json:"response_bytes"`
	// HaloValues and HaloBytes total the halo values band requests
	// carried into this node (north + west + east) and their encoded
	// volume (8 bytes per value).
	HaloValues int64 `json:"halo_values"`
	HaloBytes  int64 `json:"halo_bytes"`
}

// SchedSnapshot is the scheduler section of a metrics snapshot, read
// from the scheduler's Stats.
type SchedSnapshot struct {
	// Submitted counts admissions into the queue; Started, Done, Canceled
	// and Rejected the lifecycle outcomes (Rejected includes synchronous
	// refusals and queue expiries).
	Submitted int64 `json:"submitted"`
	Started   int64 `json:"started"`
	Done      int64 `json:"done"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Steals counts cross-solve steals (a worker switching solves).
	Steals int64 `json:"steals"`
	// PeakQueueDepth and PeakActive are the high-water marks of the
	// admission queue and the running set.
	PeakQueueDepth int `json:"peak_queue_depth"`
	PeakActive     int `json:"peak_active"`
	// QueueWaitNS sums the time-in-queue of started submissions;
	// MaxQueueWaitNS is the largest single wait. QueueWaitNS/Started is
	// the mean admission latency.
	QueueWaitNS    int64 `json:"queue_wait_ns"`
	MaxQueueWaitNS int64 `json:"max_queue_wait_ns"`
	// QueueWait histograms the time-in-queue of admitted submissions;
	// SolveLatency the full submit-to-done latency of successful solves.
	QueueWait    Hist `json:"queue_wait,omitzero"`
	SolveLatency Hist `json:"solve_latency,omitzero"`
}

// Hist is a fixed-bound duration histogram (powers of four from 1µs to
// ~16.8s); Counts prefix-sum to the cumulative Prometheus buckets.
type Hist = sched.Hist

// Snapshot reads the scheduler's counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m.s == nil {
		return MetricsSnapshot{}
	}
	st := m.s.Stats()
	return MetricsSnapshot{
		Solves: st.Done + st.Canceled,
		Errors: st.Canceled,
		Sched: SchedSnapshot{
			Submitted: st.Submitted, Started: st.Started,
			Done: st.Done, Canceled: st.Canceled, Rejected: st.Rejected,
			Steals:         st.Steals,
			PeakQueueDepth: st.PeakQueueDepth, PeakActive: st.PeakActive,
			QueueWaitNS:    st.QueueWait.SumNS,
			MaxQueueWaitNS: st.QueueWait.MaxNS,
			QueueWait:      st.QueueWait,
			SolveLatency:   st.SolveLatency,
		},
	}
}

// MarshalJSON renders the current snapshot, so a *Metrics can be encoded
// directly.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// publishMu serializes the duplicate check in PublishExpvar against
// concurrent publishes of the same name; expvar.Publish itself panics on
// duplicates, so the check must be atomic with the registration.
var publishMu sync.Mutex

// PublishExpvar registers the metrics under the given expvar name, making
// the live snapshot visible on /debug/vars. Unlike expvar.Publish, a name
// already taken reports an error instead of panicking (expvar offers no
// unregister, so re-publishing after a restart-style reinit is a common
// collision).
func (m *Metrics) PublishExpvar(name string) error {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("lddp: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	return nil
}
