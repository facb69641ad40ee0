package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hetsim"
)

func sampleTimeline() hetsim.Timeline {
	s := hetsim.NewSim(hetsim.HeteroHigh())
	a := s.Submit(hetsim.Op{Resource: hetsim.ResCPU, Kind: hetsim.OpCompute,
		Duration: 10 * time.Microsecond, Label: "cpu:p1", Cells: 50})
	s.Submit(hetsim.Op{Resource: hetsim.ResGPU, Kind: hetsim.OpCompute,
		Duration: 30 * time.Microsecond, Label: "gpu:p2", Cells: 500}, a)
	s.Submit(hetsim.Op{Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
		Duration: 5 * time.Microsecond, Label: "h2d:boundary", Bytes: 8}, a)
	return s.Timeline()
}

func TestGanttRendersLanes(t *testing.T) {
	out := Gantt(sampleTimeline(), 40)
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "gpu") || !strings.Contains(out, "h2d") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "c") || !strings.Contains(out, "g") || !strings.Contains(out, "h") {
		t.Errorf("missing op marks:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // three lanes + axis
		t.Errorf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestGanttEmptyAndZero(t *testing.T) {
	if got := Gantt(hetsim.Timeline{}, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty timeline: %q", got)
	}
}

func TestGanttNarrowWidthClamped(t *testing.T) {
	out := Gantt(sampleTimeline(), 1)
	if len(out) == 0 {
		t.Fatal("no output")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, sampleTimeline()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 ops
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	if lines[0] != "id,label,resource,kind,start_ns,end_ns,cells,bytes" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "cpu:p1") || !strings.Contains(lines[1], ",50,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestStatsLine(t *testing.T) {
	line := StatsLine(sampleTimeline())
	for _, want := range []string{"time=", "cpu=", "gpu=", "cpuCells=50", "gpuCells=500", "xfers=1", "bytes=8"} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line %q missing %q", line, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * time.Microsecond, "2.500ms"},
		{3 * time.Second, "3.000s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestGanttUsesStreamNames(t *testing.T) {
	s := hetsim.NewSim(hetsim.HeteroHigh())
	st := s.NewNamedStream("phi")
	s.Submit(hetsim.Op{Resource: st, Kind: hetsim.OpCompute, Duration: time.Microsecond, Label: "phi:k"})
	out := Gantt(s.Timeline(), 30)
	if !strings.Contains(out, "phi") {
		t.Errorf("Gantt missing stream name:\n%s", out)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, s.Timeline()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",phi,") {
		t.Errorf("CSV missing stream name: %s", sb.String())
	}
}

func TestAttributeCriticalPath(t *testing.T) {
	plat := hetsim.HeteroHigh()
	s := hetsim.NewSim(plat)
	a := s.Submit(hetsim.Op{Resource: hetsim.ResCPU, Kind: hetsim.OpCompute,
		Duration: plat.CPU.DispatchOverhead + 5*time.Microsecond})
	b := s.Submit(hetsim.Op{Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
		Duration: 2 * time.Microsecond}, a)
	s.Submit(hetsim.Op{Resource: hetsim.ResGPU, Kind: hetsim.OpCompute,
		Duration: plat.GPU.LaunchLatency + 7*time.Microsecond}, b)
	path := s.CriticalPath()
	attr := AttributeCriticalPath(path, plat)
	var total time.Duration
	for _, v := range attr {
		total += v
	}
	if total != s.Makespan() {
		t.Errorf("attribution sums to %v, makespan %v", total, s.Makespan())
	}
	if attr["cpu-dispatch"] != plat.CPU.DispatchOverhead {
		t.Errorf("cpu-dispatch = %v", attr["cpu-dispatch"])
	}
	if attr["kernel-launch"] != plat.GPU.LaunchLatency {
		t.Errorf("kernel-launch = %v", attr["kernel-launch"])
	}
	if attr["cpu-compute"] != 5*time.Microsecond || attr["gpu-compute"] != 7*time.Microsecond {
		t.Errorf("compute buckets = %v / %v", attr["cpu-compute"], attr["gpu-compute"])
	}
	if attr["transfer"] != 2*time.Microsecond {
		t.Errorf("transfer = %v", attr["transfer"])
	}
	if len(AttributeCriticalPath(nil, plat)) != 0 {
		t.Error("empty path should attribute nothing")
	}
}
