package trace

import (
	"fmt"
	"io"
	"time"
)

// WriteSummary renders an analyzed report as a plain-text summary: the
// solve header, per-worker utilization with an ASCII timeline, hand-off
// waits, the ready queue, and the critical-path bound. This is
// the second exporter next to WriteChrome, for terminals and logs.
func WriteSummary(w io.Writer, rep *Report) error {
	m := rep.Meta
	if _, err := fmt.Fprintf(w,
		"trace: solver=%s problem=%s table=%dx%d pattern=%s executed=%s fronts=%d workers=%d clock=%s\n",
		orDash(m.Solver), orDash(m.Problem), m.Rows, m.Cols, orDash(m.Pattern), orDash(m.Executed),
		m.Fronts, m.Workers, orDash(m.Clock)); err != nil {
		return err
	}
	fmt.Fprintf(w, "span=%s events=%d", formatDuration(rep.Span()), rep.Events)
	if m.Dropped > 0 {
		fmt.Fprintf(w, " dropped=%d (ring overflow: oldest events lost)", m.Dropped)
	}
	fmt.Fprintln(w)
	if rep.Events == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}

	fmt.Fprintf(w, "utilization (%d buckets of %s):\n", rep.Buckets, formatDuration(time.Duration(rep.BucketNS)))
	for _, lr := range rep.Workers {
		if lr.BusyNS == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s busy=%-10s util=%4.0f%% spans=%-6d cells=%-10d |%s|\n",
			lr.Name, formatDuration(time.Duration(lr.BusyNS)), 100*lr.Util, lr.Chunks, lr.Cells,
			utilBar(rep.Util[lr.Worker]))
	}

	if ns := rep.Stall.HandoffNS; ns > 0 {
		fmt.Fprintf(w, "stalls: handoff=%s\n", formatDuration(time.Duration(ns)))
	}

	if q := rep.Queue; q.Samples > 0 {
		fmt.Fprintf(w, "ready queue: samples=%d peak=%d avg=%.1f\n",
			q.Samples, q.PeakDepth, q.AvgDepth)
	}

	cr := rep.Critical
	_, err := fmt.Fprintf(w, "critical path (%s): steps=%d compute=%s\n",
		cr.Kind, cr.Steps, formatDuration(time.Duration(cr.ComputeNS)))
	return err
}

// utilBar renders one lane's utilization timeline as an ASCII bar, one
// character per bucket on the ramp " .:-=+*#%@" (empty to full).
func utilBar(buckets []float64) string {
	const ramp = " .:-=+*#%@"
	out := make([]byte, len(buckets))
	for i, f := range buckets {
		idx := int(f * float64(len(ramp)))
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[i] = ramp[idx]
	}
	return string(out)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
