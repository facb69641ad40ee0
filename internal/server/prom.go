package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/sched"
	"repro/lddp"
)

// writePromMetrics renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). The document is built in one
// buffer and written whole — a scrape must never observe a torn
// exposition. Metric names follow prometheus.io naming: lddpd_ prefix,
// _total on counters, base-unit seconds for durations. Every family is
// emitted unconditionally (zeros included): scrapers difference
// counters across time, and a family that appears only once traffic
// arrives breaks that.
func (s *Server) writePromMetrics(w http.ResponseWriter, snap *lddp.MetricsSnapshot) {
	var b bytes.Buffer
	p := promWriter{b: &b}

	p.counter("lddpd_solves_total", "Completed solves (successes and failures).", float64(snap.Solves))
	p.counter("lddpd_solve_errors_total", "Completed solves that returned an error.", float64(snap.Errors))

	p.counter("lddpd_sched_submitted_total", "Submissions admitted into the scheduler queue.", float64(snap.Sched.Submitted))
	p.counter("lddpd_sched_started_total", "Submissions a worker began executing.", float64(snap.Sched.Started))
	p.counter("lddpd_sched_done_total", "Submissions that completed successfully.", float64(snap.Sched.Done))
	p.counter("lddpd_sched_canceled_total", "Submissions interrupted mid-run by their context.", float64(snap.Sched.Canceled))
	p.counter("lddpd_sched_rejected_total", "Submissions refused admission.", float64(snap.Sched.Rejected))
	p.counter("lddpd_sched_steals_total", "Cross-solve worker steals.", float64(snap.Sched.Steals))
	p.gauge("lddpd_sched_queue_depth_peak", "High-water mark of the admission queue depth.", float64(snap.Sched.PeakQueueDepth))
	p.gauge("lddpd_sched_active_peak", "High-water mark of concurrently executing solves.", float64(snap.Sched.PeakActive))
	p.histogram("lddpd_sched_queue_wait_seconds", "Time submissions spent queued before a worker admitted them.", snap.Sched.QueueWait)
	p.histogram("lddpd_sched_solve_latency_seconds", "Submit-to-done latency of successful solves.", snap.Sched.SolveLatency)

	p.counter("lddpd_cache_hits_total", "Result-cache lookups served from cache.", float64(snap.Cache.Hits))
	p.counter("lddpd_cache_misses_total", "Result-cache lookups that found nothing.", float64(snap.Cache.Misses))
	p.counter("lddpd_cache_bypasses_total", "Result-cache lookups skipped by Cache-Control.", float64(snap.Cache.Bypasses))
	p.counter("lddpd_cache_stores_total", "Result-cache insertions.", float64(snap.Cache.Stores))
	p.counter("lddpd_cache_evictions_total", "Result-cache entries dropped under size pressure.", float64(snap.Cache.Evictions))
	p.gauge("lddpd_cache_entries", "Result-cache entries currently held.", float64(snap.Cache.Entries))
	p.gauge("lddpd_cache_bytes", "Result-cache bytes currently held.", float64(snap.Cache.Bytes))
	p.gauge("lddpd_cache_capacity_bytes", "Configured result-cache capacity.", float64(snap.Cache.CapacityBytes))

	p.typeLine("lddpd_wire_requests_total", "counter", "Request bodies decoded, by codec.")
	p.sample(`lddpd_wire_requests_total{codec="json"}`, float64(snap.Wire.JSONRequests))
	p.sample(`lddpd_wire_requests_total{codec="binary"}`, float64(snap.Wire.BinaryRequests))
	p.typeLine("lddpd_wire_responses_total", "counter", "Response bodies written, by codec.")
	p.sample(`lddpd_wire_responses_total{codec="json"}`, float64(snap.Wire.JSONResponses))
	p.sample(`lddpd_wire_responses_total{codec="binary"}`, float64(snap.Wire.BinaryResponses))
	p.counter("lddpd_wire_binary_rejects_total", "Binary request frames the decoder refused.", float64(snap.Wire.BinaryRejects))
	p.counter("lddpd_wire_request_bytes_total", "Solve and band-solve request body bytes read.", float64(snap.Wire.RequestBytes))
	p.counter("lddpd_wire_response_bytes_total", "Solve and band-solve response body bytes written.", float64(snap.Wire.ResponseBytes))
	p.counter("lddpd_halo_values_total", "Halo values received in band requests.", float64(snap.Wire.HaloValues))
	p.counter("lddpd_halo_bytes_total", "Encoded volume of halo values received in band requests.", float64(snap.Wire.HaloBytes))

	p.gauge("lddpd_inflight_solves", "Solve requests currently holding an admission slot.", float64(snap.Server.InflightSolves))
	p.gauge("lddpd_draining", "1 once drain began, 0 while serving.", float64(snap.Server.Draining))
	p.counter("lddpd_trace_dropped_events_total", "Trace events lost to ring-buffer overwrites.", float64(snap.Server.TraceDroppedEvents))
	p.counter("lddpd_trace_solves_total", "Solve trace files written to -tracedir.", float64(snap.Server.TraceSolves))

	p.counter("lddpd_fleet_solves_total", "Fleet solves coordinated by this node.", float64(snap.Fleet.Solves))
	p.counter("lddpd_fleet_blocks_total", "Block round trips issued by this node's coordinator.", float64(snap.Fleet.Blocks))
	p.counter("lddpd_fleet_relocations_total", "Blocks retried on a different node after a relocatable failure.", float64(snap.Fleet.Relocations))
	p.counter("lddpd_fleet_halo_values_total", "Halo values sliced into outgoing band requests.", float64(snap.Fleet.HaloValues))
	p.counter("lddpd_fleet_halo_bytes_total", "Encoded volume of halos sliced into outgoing band requests.", float64(snap.Fleet.HaloBytes))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(b.Bytes()); err != nil {
		s.logf("writing /metrics exposition: %v", err)
	}
}

// promWriter accumulates exposition lines.
type promWriter struct {
	b *bytes.Buffer
}

func (p *promWriter) typeLine(name, typ, help string) {
	fmt.Fprintf(p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(series string, v float64) {
	fmt.Fprintf(p.b, "%s %s\n", series, promFloat(v))
}

func (p *promWriter) counter(name, help string, v float64) {
	p.typeLine(name, "counter", help)
	p.sample(name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.typeLine(name, "gauge", help)
	p.sample(name, v)
}

// histogram renders one lddp.Hist as a cumulative Prometheus histogram,
// bounds converted from nanoseconds to seconds. An unused histogram
// still exposes its full bucket layout (all zeros) so scrapers see a
// stable series set.
func (p *promWriter) histogram(name, help string, h lddp.Hist) {
	p.typeLine(name, "histogram", help)
	var cum int64
	for i, bound := range sched.HistBoundsNS {
		cum += h.Counts[i]
		fmt.Fprintf(p.b, "%s_bucket{le=%q} %d\n", name, promFloat(float64(bound)/1e9), cum)
	}
	cum += h.Counts[len(sched.HistBoundsNS)]
	fmt.Fprintf(p.b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(p.b, "%s_sum %s\n", name, promFloat(float64(h.SumNS)/1e9))
	fmt.Fprintf(p.b, "%s_count %d\n", name, h.Count)
}

// promFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, integers without an exponent where
// possible.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
