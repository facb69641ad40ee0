// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads through the public surfaces of the framework:
//
//	tables  lddp.Solve in process, the paper's four case studies under
//	        five executors (closed loop, one caller);
//	serve   an in-process lddpd on a loopback listener driven by
//	        lddp/client (open loop, seeded Poisson arrivals);
//	fleet   an internal/fleet coordinator over two in-process lddpd
//	        nodes (closed loop, one fleet solve at a time).
//
// Every result is checked against the sequential oracle after the timed
// window. With --trace 0 the run prints end-to-end metrics; with --trace
// 1 it records spans around its own calls into each layer, prints
// per-layer metrics, and writes the spans as Chrome trace-event JSON.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Its metrics are the ones
// BENCHMARK.json lists, the same names on every workload; the lines
// before it also print each workload's own breakdown. README.md
// documents the workloads, the metrics and their bounds.
//
// Usage (from the repository root, which builds the binary first):
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 38 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings, parsed from the command line.
type config struct {
	seed     uint64
	window   time.Duration
	traced   bool
	traceOut string
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"tables": runTables,
	"serve":  runServe,
	"fleet":  runFleet,
}

func main() {
	name := flag.String("workload", "", "workload to run: tables, serve or fleet")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 38, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>.json)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want tables, serve or fleet)", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds %d: need at least 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace %d: want 0 or 1", *traced)
	}
	cfg := config{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		traceOut: *traceOut,
	}
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+*name+".json")
	}
	rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	want := endToEndMetrics
	if cfg.traced {
		want = perLayerMetrics
	}
	if err := rep.print(os.Stdout, want); err != nil {
		fatalf("%s: %v", *name, err)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metricSpec names a metric of the result line and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics (--trace 0) and perLayerMetrics (--trace 1) are the
// metrics of the result line, in BENCHMARK.json's order. Every workload
// reports every one of them, each by the statistic README.md defines for
// that workload, so a regression on any workload shows under the same
// name.
var (
	endToEndMetrics = []metricSpec{
		{"setup_s", "s"},
		{"latency_ms", "ms"},
		{"goodput_per_s", "1/s"},
		{"alloc_bytes_per_cell", "B/cell"},
		{"allocs_per_op", "allocs/op"},
	}
	perLayerMetrics = []metricSpec{
		{"solve_ms", "ms"},
		{"trace.overhead_ratio", "1"},
	}
)

// metric is one reported figure. samples is the number of measurements
// behind a timing statistic, 0 for counts and ratios. A result metric
// goes into the result line; the others are the workload's own
// breakdown, printed above it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	result  bool
}

// report is the outcome of one run: the metrics in print order, the
// operation counts, and whether every oracle check passed.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	// notes are extra human-readable lines printed before the metrics.
	notes []string
}

// add records a metric of the result line.
func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples, true})
}

// detail records a metric of the workload's own breakdown.
func (r *report) detail(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples, false})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric (name, value, unit, sample
// count; the breakdown first), and then the result object as the last
// line. It fails without the result line unless the result metrics are
// exactly want, with their units.
func (r *report) print(w io.Writer, want []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, error_ratio %.6f, correct %v\n", r.attempted, r.failed, ratio, r.correct)
	seen := map[string]bool{}
	for _, result := range []bool{false, true} {
		if result {
			fmt.Fprintln(w, "-- result metrics --")
		}
		for _, m := range r.metrics {
			if m.result != result {
				continue
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("metric %s is %v", m.name, m.value)
			}
			if seen[m.name] {
				return fmt.Errorf("metric %s reported twice", m.name)
			}
			seen[m.name] = true
			if result {
				out.Metrics[m.name] = value{m.value, m.unit}
			}
			line := fmt.Sprintf("%-44s %16.6f %s", m.name, m.value, m.unit)
			if m.samples > 0 {
				line += fmt.Sprintf("  (n=%d)", m.samples)
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("%d result metrics, want %d", len(out.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := out.Metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("result metric %s (%s) missing", m.name, m.unit)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	doc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", doc)
	return err
}

// setupRepeats is how many times a run builds its system from scratch.
// setup_s reports the median, so one slow start does not move it.
const setupRepeats = 5

// repeatSetup runs build setupRepeats times, tearing down every result
// but the last, and returns the last result with the median build time
// in seconds.
func repeatSetup[S any](build func() (S, error), teardown func(S)) (S, float64, error) {
	var s S
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(s)
		}
		// Start every attempt from the same heap state, so garbage left
		// by the previous attempt is not collected on this one's clock.
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = build()
		if err != nil {
			return s, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return s, median(secs), nil
}

// allocs is a snapshot of the process's cumulative heap allocation.
type allocs struct{ bytes, objects uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

func (a allocs) since(b allocs) allocs {
	return allocs{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
}
