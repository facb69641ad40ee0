// Command lddpsim runs one seeded fleet scenario through the scenario
// engine (repro/internal/sim): it boots -nodes in-process lddpd
// serving stacks, drives a randomized operation mix (solves across
// workload kinds and dependency masks, fleet band solves, cache
// replays, metrics/Prometheus scrapes, stitched-trace checks) while
// injecting faults (node kills, drains, response delay/drop/truncation,
// context cancellations, admission saturation), and verifies the run's
// invariants: oracle digest equality for every 200, typed errors only,
// Retry-After honored on the wire, readiness flipping before listeners
// close, lint-clean Prometheus output, relocation accounting, zero
// goroutine leaks.
//
// Usage:
//
//	lddpsim -seed 7                        # one scenario, default shape
//	lddpsim -seed 7 -nodes 4 -ops 120 -kills 1 -drains 1
//	lddpsim -seed 7 -record oplog.json     # save the schedule it ran
//	lddpsim -replay oplog.json             # re-run a recorded schedule
//
// On an invariant violation lddpsim prints the seed, writes the op log
// (to -record, or a temp file when unset), and exits 1 — the printed
// -replay invocation reproduces the exact operation schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/sim"
)

type options struct {
	seed     int64
	nodes    int
	ops      int
	maxdim   int
	kills    int
	drains   int
	arms     int
	record   string
	replay   string
	tracedir string
	timeout  time.Duration
	verbose  bool
}

func main() {
	var opts options
	flag.Int64Var(&opts.seed, "seed", 1, "scenario seed (ignored with -replay)")
	flag.IntVar(&opts.nodes, "nodes", 3, "in-process lddpd nodes to boot")
	flag.IntVar(&opts.ops, "ops", 60, "scheduled operations")
	flag.IntVar(&opts.maxdim, "maxdim", 24, "max rows/cols of one solve")
	flag.IntVar(&opts.kills, "kills", 1, "nodes killed mid-run (capped to keep one alive)")
	flag.IntVar(&opts.drains, "drains", 0, "nodes drained mid-run")
	flag.IntVar(&opts.arms, "arms", 0, "admission-saturation bursts (0 = one on big runs, negative = none)")
	flag.StringVar(&opts.record, "record", "", "write the executed schedule (op log) to this file")
	flag.StringVar(&opts.replay, "replay", "", "replay a recorded op log instead of generating")
	flag.StringVar(&opts.tracedir, "tracedir", "", "keep node and fleet traces here (default: temp, removed)")
	flag.DurationVar(&opts.timeout, "timeout", 2*time.Minute, "whole-run bound; expiry is a hang violation")
	flag.BoolVar(&opts.verbose, "v", false, "log every op outcome")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lddpsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options, out io.Writer) error {
	cfg := sim.Config{
		Gen: sim.GenConfig{
			Seed: opts.seed, Nodes: opts.nodes, Ops: opts.ops,
			MaxDim: opts.maxdim, Kills: opts.kills, Drains: opts.drains,
			Arms: opts.arms,
		},
		TraceDir: opts.tracedir,
		Timeout:  opts.timeout,
		Verbose:  opts.verbose,
		Out:      out,
	}
	if opts.replay != "" {
		s, err := sim.LoadSchedule(opts.replay)
		if err != nil {
			return err
		}
		cfg.Schedule = s
		fmt.Fprintf(out, "lddpsim: replaying %s (seed %d, %d ops, %d nodes)\n",
			opts.replay, s.Seed, len(s.Ops), s.Nodes)
	}
	rep, err := sim.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if opts.record != "" {
		if err := sim.SaveSchedule(opts.record, rep.Schedule); err != nil {
			return fmt.Errorf("recording op log: %w", err)
		}
		fmt.Fprintf(out, "lddpsim: op log recorded to %s\n", opts.record)
	}
	fmt.Fprintf(out, "lddpsim: seed %d: %d ops, classes %v, relocations %d, 429s %d in %s\n",
		rep.Schedule.Seed, len(rep.Schedule.Ops), rep.Classes, rep.Relocations,
		rep.Rejected429, rep.Elapsed.Round(time.Millisecond))
	if verr := rep.Err(); verr != nil {
		// A failing run must leave a reproducer behind even without
		// -record: the op log plus the printed seed is the whole bug
		// report.
		path := opts.record
		if path == "" {
			path = filepath.Join(os.TempDir(), fmt.Sprintf("lddpsim-oplog-%d.json", rep.Schedule.Seed))
			if err := sim.SaveSchedule(path, rep.Schedule); err != nil {
				fmt.Fprintf(out, "lddpsim: could not save op log: %v\n", err)
				path = ""
			}
		}
		if path != "" {
			fmt.Fprintf(out, "lddpsim: reproduce with: lddpsim -replay %s\n", path)
		}
		return verr
	}
	fmt.Fprintln(out, "lddpsim: all invariants held")
	return nil
}
