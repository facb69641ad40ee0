// Package trace records and renders what a solve did. The Recorder
// captures a native solve's events in per-worker ring buffers;
// Recorder.ImportTimeline brings a simulated hetsim schedule into the same
// event form. WriteChrome exports either as Chrome/Perfetto JSON,
// ReadChrome reads it back, WriteFleetChrome stitches the traces of a
// fleet solve into one document, and Analyze and AnalyzeFleet fold the
// events into utilization, hand-off and critical-path reports. For
// simulated timelines the package also draws ASCII and HTML Gantt charts,
// writes CSV and one-line stats, and attributes the critical path.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/hetsim"
)

// Gantt renders the timeline as an ASCII chart, one lane per resource,
// width columns wide. Each op paints its span with the first letter of its
// label ('c' for cpu ops, 'g' for gpu, 'h'/'d' for transfers); overlapping
// paint within a lane cannot happen (resources are in-order).
func Gantt(t hetsim.Timeline, width int) string {
	if len(t.Records) == 0 {
		return "(empty timeline)\n"
	}
	if width < 20 {
		width = 20
	}
	makespan := t.Makespan()
	if makespan <= 0 {
		return "(zero-length timeline)\n"
	}
	resources := t.Resources()
	var sb strings.Builder
	scale := float64(width) / float64(makespan)
	for _, res := range resources {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		for _, r := range t.Records {
			if r.Resource != res {
				continue
			}
			lo := int(float64(r.Start) * scale)
			hi := int(float64(r.End) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			mark := byte('?')
			if len(r.Label) > 0 {
				mark = r.Label[0]
			}
			for i := lo; i < hi; i++ {
				lane[i] = mark
			}
		}
		fmt.Fprintf(&sb, "%-8s|%s|\n", t.NameOf(res), lane)
	}
	fmt.Fprintf(&sb, "%-8s 0%*s\n", "", width-1, formatDuration(makespan))
	return sb.String()
}

// WriteCSV writes the timeline as CSV rows:
// id,label,resource,kind,start_ns,end_ns,cells,bytes.
func WriteCSV(w io.Writer, t hetsim.Timeline) error {
	if _, err := fmt.Fprintln(w, "id,label,resource,kind,start_ns,end_ns,cells,bytes"); err != nil {
		return err
	}
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%d\n",
			r.ID, r.FullLabel(), t.NameOf(r.Resource), r.Kind, int64(r.Start), int64(r.End), r.Cells, r.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// StatsLine renders the summary of a timeline as a single compact line.
func StatsLine(t hetsim.Timeline) string {
	s := t.Summarize()
	return fmt.Sprintf("time=%s cpu=%.0f%% gpu=%.0f%% cpuCells=%d gpuCells=%d xfers=%d bytes=%d",
		formatDuration(s.Makespan), 100*s.CPUUtil, 100*s.GPUUtil,
		s.CPUCells, s.GPUCells, s.Transfers, s.BytesMoved)
}

// formatDuration renders a duration with 3 significant decimals at a
// human-appropriate unit, stable across magnitudes (unlike
// Duration.String, which switches formats).
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// FormatDuration exposes the stable rendering for experiment tables.
func FormatDuration(d time.Duration) string { return formatDuration(d) }

// AttributeCriticalPath decomposes a critical path (hetsim.Sim.CriticalPath)
// into the overhead and work classes that compose the makespan:
//
//	kernel-launch  fixed launch latency of GPU ops on the path
//	gpu-compute    the remainder of those kernels
//	cpu-dispatch   fixed fork/join cost of CPU regions on the path
//	cpu-compute    the remainder of those regions
//	transfer       host<->device copies on the path
//	lead-in        time before the first path op started
//
// The buckets sum exactly to the timeline makespan.
func AttributeCriticalPath(path []hetsim.OpRecord, plat *hetsim.Platform) map[string]time.Duration {
	out := map[string]time.Duration{}
	if len(path) == 0 {
		return out
	}
	out["lead-in"] = path[0].Start
	for _, r := range path {
		d := r.Duration()
		switch {
		case r.Kind == hetsim.OpTransfer:
			out["transfer"] += d
		case r.Resource == hetsim.ResCPU:
			fixed := min(plat.CPU.DispatchOverhead, d)
			out["cpu-dispatch"] += fixed
			out["cpu-compute"] += d - fixed
		default:
			fixed := min(plat.GPU.LaunchLatency, d)
			out["kernel-launch"] += fixed
			out["gpu-compute"] += d - fixed
		}
	}
	return out
}
