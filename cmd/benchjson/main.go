// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the JSON records committed as BENCH_*.json. It keeps only the
// benchmark result lines plus the goos/goarch/cpu header, so a reference
// run can be diffed and archived without the test-runner chatter. -desc
// overrides the description line (e.g. to name the make target that
// regenerates the file).
//
// -assert turns the converter into a budget gate: each
// "substring<=limit" (repeatable) selects the benchmarks whose name
// contains the substring and fails the run (exit 1, JSON still written)
// when any of them exceeds the limit in allocs/op — the CI hook that
// keeps a perf-sensitive path from silently regressing its allocation
// budget. "substring:unit<=limit" gates a custom b.ReportMetric column
// instead, such as an interleaved time ratio. A pattern matching no
// benchmark is also an error, and so is a matched benchmark that does not
// report the unit: a renamed benchmark or metric must not turn the gate
// into a no-op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric columns by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Description string   `json:"description"`
	Goos        string   `json:"goos,omitempty"`
	Goarch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	GoVersion   string   `json:"go_version,omitempty"`
	GoMaxProcs  int      `json:"gomaxprocs,omitempty"`
	Commit      string   `json:"commit,omitempty"`
	Timestamp   string   `json:"timestamp,omitempty"`
	Benchmarks  []result `json:"benchmarks"`
}

// assertList collects repeated -assert flags.
type assertList []string

func (a *assertList) String() string     { return strings.Join(*a, ",") }
func (a *assertList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	desc := flag.String("desc", "Reference benchmark run; real wall-clock numbers from one machine. Regenerate with `make bench`.",
		"description line embedded in the report")
	var asserts assertList
	flag.Var(&asserts, "assert", "allocs/op budget as 'substring<=limit', or a custom metric's as 'substring:unit<=limit' (repeatable); fail when any matching benchmark exceeds it")
	flag.Parse()
	rep := report{
		Description: *desc,
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Commit:      gitCommit(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	failed := false
	for _, a := range asserts {
		for _, msg := range checkAssert(a, rep.Benchmarks) {
			fmt.Fprintln(os.Stderr, "benchjson:", msg)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkAssert evaluates one 'substring<=limit' (allocs/op) or
// 'substring:unit<=limit' (custom metric) budget against the parsed
// results and returns one message per violation (malformed spec, no
// match and a matched benchmark without the unit are violations too — a
// silent gate is worse than none).
func checkAssert(spec string, benchmarks []result) []string {
	name, limitStr, ok := strings.Cut(spec, "<=")
	if !ok {
		return []string{fmt.Sprintf("assert %q: want 'substring<=limit' or 'substring:unit<=limit'", spec)}
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
	if err != nil {
		return []string{fmt.Sprintf("assert %q: bad limit: %v", spec, err)}
	}
	name, unit, custom := strings.Cut(strings.TrimSpace(name), ":")
	if !custom {
		unit = "allocs/op"
	}
	var msgs []string
	matched := false
	for _, r := range benchmarks {
		if !strings.Contains(r.Name, name) {
			continue
		}
		matched = true
		v, ok := float64(r.AllocsPerOp), true
		if custom {
			v, ok = r.Metrics[unit]
		}
		switch {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("assert %q: %s reports no %s (renamed without updating the budget?)", spec, r.Name, unit))
		case v > limit:
			msgs = append(msgs, fmt.Sprintf("assert %q: %s at %g %s exceeds budget %g", spec, r.Name, v, unit, limit))
		}
	}
	if !matched {
		msgs = append(msgs, fmt.Sprintf("assert %q: no benchmark matched %q (renamed without updating the budget?)", spec, name))
	}
	return msgs
}

// gitCommit resolves the short commit hash of the working tree,
// best-effort: runs outside a checkout (or without git) produce records
// without a commit field rather than failing. A tree with uncommitted
// changes gets "-dirty" appended: its numbers describe code no commit
// holds. The BENCH_*.json ledgers themselves are left out of that check,
// since the make targets' redirect truncates the one being written
// before this runs.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	status, err := exec.Command("git", "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json").Output()
	if err != nil {
		status = []byte("unknown") // cannot prove the tree clean
	}
	return commitLabel(string(head), string(status))
}

// commitLabel renders the commit field from the output of
// `git rev-parse --short HEAD` and `git status --porcelain`.
func commitLabel(head, status string) string {
	c := strings.TrimSpace(head)
	if strings.TrimSpace(status) != "" {
		c += "-dirty"
	}
	return c
}

// parseLine decodes one `BenchmarkName-P  N  X ns/op  [Y B/op  Z allocs/op]`
// result line. Any other unit is a custom ReportMetric column, kept in
// Metrics.
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[f[i+1]] = v
		}
	}
	return r, r.NsPerOp > 0
}
