// Command lddpserve is the shared-scheduler load driver: it fires a batch
// of concurrent solve submissions at one lddp.Scheduler and reports
// aggregate throughput, outcome counts, and scheduler statistics. It is
// both the CI smoke test for the scheduler under real concurrency and the
// tool behind the multi-solve throughput numbers in EXPERIMENTS.md. With
// -url it drives a remote lddpd server through the repro/lddp/client
// package instead of an in-process scheduler, running the identical
// kernel (the requests carry the "serve" workload kind).
//
// Usage:
//
//	lddpserve -solves 16 -size 1024                  # 16 concurrent 1024x1024 solves
//	lddpserve -mode compare -solves 16 -size 512     # scheduler vs back-to-back Solve
//	lddpserve -mix -solves 32 -timeout 50ms          # mixed sizes and masks, deadlines
//	lddpserve -metrics out.json                      # dump the metrics snapshot
//	lddpserve -url http://127.0.0.1:8080 -solves 16  # same batch against a lddpd server
//	lddpserve -fleet http://n1:8080,http://n2:8080   # band-shard each solve across nodes
//
// Exit status is 0 when every submission ends in an expected state (done,
// or canceled/rejected under -timeout), 1 otherwise.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

type options struct {
	solves  int
	size    int
	mask    string
	mix     bool
	seed    int64
	workers int
	queue   int
	active  int
	timeout time.Duration
	mode    string
	metrics string
	url     string
	retries int
	codec   string

	fleet     string
	bands     int
	phaseCols int
	verify    bool
	tracedir  string
}

func main() {
	var opts options
	flag.IntVar(&opts.solves, "solves", 16, "number of concurrent solve submissions")
	flag.IntVar(&opts.size, "size", 512, "table dimension (rows = cols = size)")
	flag.StringVar(&opts.mask, "mask", "W,N", "contributing set, e.g. 'W,N' or '{W,NW,NE}'")
	flag.BoolVar(&opts.mix, "mix", false, "randomize masks and sizes per submission (seeded)")
	flag.Int64Var(&opts.seed, "seed", 1, "seed for -mix randomization")
	flag.IntVar(&opts.workers, "workers", 0, "scheduler workers (0 = min(GOMAXPROCS, NumCPU))")
	flag.IntVar(&opts.queue, "queue", 0, "admission queue bound (0 = default)")
	flag.IntVar(&opts.active, "active", 0, "max concurrently active solves (0 = default)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "per-submission deadline (0 = none)")
	flag.StringVar(&opts.mode, "mode", "sched", "sched | seq | compare")
	flag.StringVar(&opts.metrics, "metrics", "", "write the metrics JSON snapshot to this file")
	flag.StringVar(&opts.url, "url", "", "drive a remote lddpd server at this base URL instead of an in-process scheduler")
	flag.IntVar(&opts.retries, "retries", 8, "client retry attempts per solve in -url mode (covers server startup)")
	flag.StringVar(&opts.codec, "codec", "json", "wire encoding in -url mode: json | binary")
	flag.StringVar(&opts.fleet, "fleet", "", "comma-separated lddpd node URLs; shard each solve into row bands across them")
	flag.IntVar(&opts.bands, "bands", 0, "row bands per fleet solve (0 = one per node; only with -fleet)")
	flag.IntVar(&opts.phaseCols, "phase-cols", 0, "fleet block phase width in columns (0 = default; only with -fleet)")
	flag.BoolVar(&opts.verify, "verify", true, "in -fleet mode, cross-check each fleet digest against a single-node solve")
	flag.StringVar(&opts.tracedir, "tracedir", "", "in -fleet mode, collect node traces and write one stitched fleet timeline per solve into this directory")
	flag.Parse()
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lddpserve:", err)
		os.Exit(1)
	}
}

// workItem is one submission of the batch.
type workItem struct {
	problem    *lddp.Problem[int64]
	mask       lddp.DepMask
	rows, cols int
	cells      int64
}

// buildBatch materializes the submission list. With -mix, masks and sizes
// are drawn from the seeded generator; otherwise every submission is the
// same size x size problem on the flag mask.
func buildBatch(opts options) ([]workItem, error) {
	mask, err := lddp.ParseDepMask(opts.mask)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.seed))
	masks := lddp.AllDepMasks()
	items := make([]workItem, opts.solves)
	for k := range items {
		m, size := mask, opts.size
		if opts.mix {
			m = masks[rng.Intn(len(masks))]
			size = 1 + rng.Intn(opts.size)
		}
		items[k] = workItem{
			problem: loadProblem(m, size, size),
			mask:    m, rows: size, cols: size,
			cells: int64(size) * int64(size),
		}
	}
	return items, nil
}

// loadProblem builds the driver's benchmark recurrence — the "serve"
// workload kind of the network service, so local and -url runs execute
// the identical kernel (cheap integer mixing of every contributing
// neighbour; int64 overflow wraps, fine for a load test).
func loadProblem(m lddp.DepMask, rows, cols int) *lddp.Problem[int64] {
	return server.ServeProblem(m, rows, cols, 0, 0)
}

// outcome tallies one batch run.
type outcome struct {
	done, canceled, rejected, failed int
	cells                            int64
	elapsed                          time.Duration
}

func (o outcome) throughput() float64 {
	if o.elapsed <= 0 {
		return 0
	}
	return float64(o.cells) / o.elapsed.Seconds()
}

func run(opts options, out io.Writer) error {
	switch opts.mode {
	case "sched", "seq", "compare":
	default:
		return fmt.Errorf("unknown -mode %q (want sched, seq or compare)", opts.mode)
	}
	if opts.solves <= 0 || opts.size <= 0 {
		return fmt.Errorf("-solves and -size must be positive")
	}
	if opts.url != "" && opts.mode != "sched" {
		return fmt.Errorf("-url drives a remote scheduler; -mode %s is local-only", opts.mode)
	}
	if opts.fleet != "" && opts.url != "" {
		return fmt.Errorf("-fleet and -url are mutually exclusive")
	}
	if opts.fleet != "" && opts.mode != "sched" {
		return fmt.Errorf("-fleet drives remote nodes; -mode %s is local-only", opts.mode)
	}
	items, err := buildBatch(opts)
	if err != nil {
		return err
	}
	if opts.fleet != "" {
		return runFleet(opts, items, out)
	}
	if opts.url != "" {
		return runRemote(opts, items, out)
	}

	var schedRes, seqRes outcome
	metrics := &lddp.Metrics{}
	if opts.mode != "sched" {
		seqRes = runSequential(opts, items)
		fmt.Fprintf(out, "seq:   %d solves, %d done, %d canceled, %.3gs, %.3g cells/s\n",
			opts.solves, seqRes.done, seqRes.canceled, seqRes.elapsed.Seconds(), seqRes.throughput())
	}
	if opts.mode != "seq" {
		s, err := lddp.NewScheduler(
			lddp.WithSchedulerWorkers(opts.workers),
			lddp.WithSchedulerQueue(opts.queue),
			lddp.WithSchedulerMaxActive(opts.active),
		)
		if err != nil {
			return err
		}
		metrics = lddp.NewMetrics(s)
		schedRes = runScheduled(opts, s, items)
		st := s.Stats()
		s.Close()
		fmt.Fprintf(out, "sched: %d solves, %d done, %d canceled, %d rejected, %.3gs, %.3g cells/s\n",
			opts.solves, schedRes.done, schedRes.canceled, schedRes.rejected,
			schedRes.elapsed.Seconds(), schedRes.throughput())
		fmt.Fprintf(out, "sched: %d steals, peak queue %d, peak active %d, workers %d\n",
			st.Steals, st.PeakQueueDepth, st.PeakActive, len(st.Workers))
	}
	if opts.mode == "compare" && seqRes.throughput() > 0 {
		fmt.Fprintf(out, "compare: scheduler/sequential throughput ratio %.2fx\n",
			schedRes.throughput()/seqRes.throughput())
	}
	if opts.metrics != "" {
		doc, err := json.MarshalIndent(metrics.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.metrics, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", opts.metrics)
	}

	failed := schedRes.failed + seqRes.failed
	if failed > 0 {
		return fmt.Errorf("%d submissions failed unexpectedly", failed)
	}
	if opts.timeout == 0 && opts.mode != "seq" && schedRes.done != opts.solves {
		return fmt.Errorf("without -timeout all %d submissions must complete; %d did", opts.solves, schedRes.done)
	}
	return nil
}

// runScheduled fires every submission at the shared scheduler at once and
// waits for all outcomes.
func runScheduled(opts options, s *lddp.Scheduler, items []workItem) outcome {
	var (
		res outcome
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, it := range items {
		wg.Add(1)
		go func(it workItem) {
			defer wg.Done()
			ctx := context.Background()
			if opts.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, opts.timeout)
				defer cancel()
			}
			_, err := lddp.SolveOn(ctx, s, it.problem)
			mu.Lock()
			defer mu.Unlock()
			var rej *lddp.Rejected
			var can *lddp.Canceled
			switch {
			case err == nil:
				res.done++
				res.cells += it.cells
			case errors.As(err, &rej):
				res.rejected++
			case errors.As(err, &can):
				res.canceled++
			default:
				res.failed++
				fmt.Fprintf(os.Stderr, "lddpserve: %s: unexpected error: %v\n", it.problem.Name, err)
			}
		}(it)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runRemote fires the batch at a remote lddpd server through the client
// package: the same concurrency structure as runScheduled, with the
// scheduler behind HTTP. The client's retry/backoff also absorbs the
// server's startup window (connection refused retries like a 503), which
// is what lets `make serve-smoke` start lddpd and the driver together.
func runRemote(opts options, items []workItem, out io.Writer) error {
	// A load driver measures the solve path; a server-side cache hit
	// would measure a map lookup instead, so every request opts out.
	copts := []client.Option{client.WithRetry(client.RetryPolicy{
		MaxAttempts: opts.retries,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}), client.WithCacheControl("no-store")}
	switch opts.codec {
	case "", "json":
	case "binary":
		copts = append(copts, client.WithCodec(client.CodecBinary))
	default:
		return fmt.Errorf("unknown -codec %q (want json or binary)", opts.codec)
	}
	c, err := client.New(opts.url, copts...)
	if err != nil {
		return err
	}
	defer c.Close()
	var (
		res outcome
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, it := range items {
		wg.Add(1)
		go func(it workItem) {
			defer wg.Done()
			req := &api.SolveRequest{
				Rows: it.rows, Cols: it.cols,
				Mask:       it.mask.String(),
				Workload:   api.WorkloadSpec{Kind: api.KindServe},
				DeadlineMS: opts.timeout.Milliseconds(),
			}
			_, err := c.Solve(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.done++
				res.cells += it.cells
			case errors.Is(err, client.ErrTimeout):
				res.canceled++
			case errors.Is(err, client.ErrOverloaded), errors.Is(err, client.ErrUnavailable):
				res.rejected++
			default:
				res.failed++
				fmt.Fprintf(os.Stderr, "lddpserve: %s: unexpected error: %s\n", it.problem.Name, remoteErrDetail(err))
			}
		}(it)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	fmt.Fprintf(out, "remote: %d solves, %d done, %d canceled, %d rejected, %.3gs, %.3g cells/s\n",
		opts.solves, res.done, res.canceled, res.rejected, res.elapsed.Seconds(), res.throughput())
	if opts.metrics != "" {
		snap, err := c.Metrics(context.Background())
		if err != nil {
			return fmt.Errorf("fetching /metrics: %w", err)
		}
		doc, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.metrics, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (server sched: %d done, %d steals, peak active %d)\n",
			opts.metrics, snap.Sched.Done, snap.Sched.Steals, snap.Sched.PeakActive)
	}
	if res.failed > 0 {
		return fmt.Errorf("%d submissions failed unexpectedly", res.failed)
	}
	if opts.timeout == 0 && res.done != opts.solves {
		return fmt.Errorf("without -timeout all %d submissions must complete; %d did", opts.solves, res.done)
	}
	return nil
}

// remoteErrDetail renders a remote failure for the per-request error
// line. When the server assigned a solve ID before failing, the ID is
// prepended so the failure can be matched against that node's logs and
// trace files — the attribution handle for fleet debugging.
func remoteErrDetail(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.SolveID != 0 {
		return fmt.Sprintf("solve %d: %v", apiErr.SolveID, err)
	}
	return err.Error()
}

// runFleet shards each submission into row bands across the -fleet node
// list through the internal/fleet coordinator — the driver-side variant
// of `lddpd -peers`. With -verify (the default) every fleet digest is
// cross-checked against a single-node solve of the same request on the
// first node, making this a differential smoke as well as a load driver.
func runFleet(opts options, items []workItem, out io.Writer) error {
	copts := []client.Option{
		client.WithCodec(client.CodecBinary),
		client.WithRetry(client.RetryPolicy{
			MaxAttempts: opts.retries,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    2 * time.Second,
		}),
		client.WithCacheControl("no-store"),
	}
	var nodes []*client.Client
	for _, u := range strings.Split(opts.fleet, ",") {
		c, err := client.New(strings.TrimSpace(u), copts...)
		if err != nil {
			return fmt.Errorf("-fleet: %w", err)
		}
		defer c.Close()
		nodes = append(nodes, c)
	}
	if opts.tracedir != "" {
		if err := os.MkdirAll(opts.tracedir, 0o755); err != nil {
			return err
		}
	}
	coord, err := fleet.New(fleet.Config{
		Nodes: nodes, Bands: opts.bands, PhaseCols: opts.phaseCols,
		TraceDir: opts.tracedir,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	var (
		res         outcome
		relocations int
		mismatches  int
		stitched    int
		mu          sync.Mutex
		wg          sync.WaitGroup
	)
	start := time.Now()
	for _, it := range items {
		wg.Add(1)
		go func(it workItem) {
			defer wg.Done()
			req := &api.SolveRequest{
				Rows: it.rows, Cols: it.cols,
				Mask:       it.mask.String(),
				Workload:   api.WorkloadSpec{Kind: api.KindServe},
				DeadlineMS: opts.timeout.Milliseconds(),
			}
			fres, err := coord.Solve(context.Background(), req)
			var oracle string
			if err == nil && opts.verify {
				sres, serr := nodes[0].Solve(context.Background(), req)
				if serr != nil {
					err = fmt.Errorf("verify solve: %w", serr)
				} else {
					oracle = sres.Digest
				}
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.done++
				res.cells += it.cells
				relocations += fres.Stats.Relocations
				if fres.TracePath != "" {
					stitched++
				}
				if opts.verify && fres.Digest != oracle {
					mismatches++
					fmt.Fprintf(os.Stderr, "lddpserve: %s: fleet digest %s != single-node digest %s\n",
						it.problem.Name, fres.Digest, oracle)
				}
			case errors.Is(err, client.ErrTimeout):
				res.canceled++
			case errors.Is(err, client.ErrOverloaded), errors.Is(err, client.ErrUnavailable):
				res.rejected++
			default:
				res.failed++
				fmt.Fprintf(os.Stderr, "lddpserve: %s: unexpected error: %s\n", it.problem.Name, remoteErrDetail(err))
			}
		}(it)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	fmt.Fprintf(out, "fleet: %d solves over %d nodes, %d done, %d canceled, %d rejected, %d relocations, %.3gs, %.3g cells/s\n",
		opts.solves, len(nodes), res.done, res.canceled, res.rejected, relocations, res.elapsed.Seconds(), res.throughput())
	if opts.tracedir != "" {
		fmt.Fprintf(out, "fleet: %d stitched timelines in %s\n", stitched, opts.tracedir)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d fleet solves diverged from the single-node oracle", mismatches)
	}
	if res.failed > 0 {
		return fmt.Errorf("%d submissions failed unexpectedly", res.failed)
	}
	if opts.timeout == 0 && res.done != opts.solves {
		return fmt.Errorf("without -timeout all %d submissions must complete; %d did", opts.solves, res.done)
	}
	return nil
}

// runSequential is the baseline: the same batch as back-to-back
// lddp.Solve calls, each starting its own tile-engine workers — what a
// service without the scheduler would do.
func runSequential(opts options, items []workItem) outcome {
	var res outcome
	start := time.Now()
	for _, it := range items {
		ctx := context.Background()
		if opts.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.timeout)
			defer cancel()
		}
		_, err := lddp.Solve(ctx, it.problem, lddp.WithWorkers(opts.workers))
		var can *lddp.Canceled
		switch {
		case err == nil:
			res.done++
			res.cells += it.cells
		case errors.As(err, &can):
			res.canceled++
		default:
			res.failed++
			fmt.Fprintf(os.Stderr, "lddpserve: %s: unexpected error: %v\n", it.problem.Name, err)
		}
	}
	res.elapsed = time.Since(start)
	return res
}
