// Command lddptrace analyzes a runtime trace written by
// `lddprun -traceout` (or lddp.WriteTrace): per-worker utilization
// timelines, hand-off waits, the tile engine's ready-queue depth, and the
// busiest lane's bound on the critical path.
//
// Usage:
//
//	lddprun -problem levenshtein -size 2048 -solver parallel -traceout t.json
//	lddptrace t.json
//	lddptrace -json t.json | jq .queue
//	lddptrace -buckets 120 t.json
//
// The input is Chrome trace-event JSON; "-" reads stdin. With -json the
// full analyzed report is emitted as JSON instead of the text summary.
//
// Stitched fleet timelines (written by the fleet coordinator's
// -tracedir, one process lane per node) are detected by their fleet_id
// metadata and routed through the fleet analyzer instead: per-node
// utilization, halo wait/transfer totals, and the fleet critical path
// through the block DAG.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the analyzed report as JSON")
	buckets := flag.Int("buckets", 0, "utilization timeline buckets (0 = 60)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lddptrace [-json] [-buckets n] <trace.json | ->")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	// Buffer the document before parsing: stdin cannot be re-read, and a
	// fleet trace needs the second (PID-retaining) parse.
	data, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}

	doc, err := trace.ReadFleetChrome(bytes.NewReader(data))
	if err != nil {
		fatal(err)
	}
	if trace.IsFleetDoc(doc.Meta) {
		emit(trace.AnalyzeFleet(doc), func(w io.Writer, rep *trace.FleetReport) error {
			return trace.WriteFleetSummary(w, rep)
		}, *jsonOut)
		return
	}

	meta, events, err := trace.ReadChrome(bytes.NewReader(data))
	if err != nil {
		fatal(err)
	}
	rep := trace.Analyze(meta, events, *buckets)
	emit(rep, func(w io.Writer, rep *trace.Report) error {
		return trace.WriteSummary(w, rep)
	}, *jsonOut)
}

// emit writes the report as indented JSON or through its text renderer.
func emit[T any](rep T, text func(io.Writer, T) error, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if err := text(os.Stdout, rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lddptrace:", err)
	os.Exit(1)
}
