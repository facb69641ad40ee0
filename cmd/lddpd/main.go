// Command lddpd is the network solve service: an HTTP/JSON server
// exposing the shared multi-solve scheduler (lddp.Scheduler) behind
// POST /v1/solve, with health/readiness/metrics endpoints and graceful
// drain on SIGTERM. The wire protocol is documented in DESIGN.md §10;
// repro/lddp/client is the Go client and cmd/lddpserve -url the load
// driver.
//
// Usage:
//
//	lddpd                                  # serve on :8080, default limits
//	lddpd -addr 127.0.0.1:9000 -workers 8  # pin address and pool size
//	lddpd -tracedir traces                 # record a per-solve trace file
//	lddpd -debug-addr 127.0.0.1:6060       # pprof/expvar on a separate port
//
// Profiling recipe: with -debug-addr 127.0.0.1:6060 set, capture a
// 10-second CPU profile of a busy node with
// `go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10`.
//
// Shutdown: on SIGTERM/SIGINT the server stops advertising readiness
// (GET /readyz -> 503) and refuses new solves, lets admitted solves
// finish for up to -drain, then closes the listener and the scheduler.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/client"
)

type options struct {
	addr       string
	debugAddr  string
	workers    int
	queue      int
	active     int
	inflight   int
	maxCells   int64
	cacheBytes int64
	drain      time.Duration
	tracedir   string
	peers      string
	bands      int
	phaseCols  int
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "serve net/http/pprof and expvar on this extra address (never on the serving port); empty disables")
	flag.IntVar(&opts.workers, "workers", 0, "scheduler workers (0 = min(GOMAXPROCS, NumCPU))")
	flag.IntVar(&opts.queue, "queue", 0, "admission queue bound (0 = default)")
	flag.IntVar(&opts.active, "active", 0, "max concurrently active solves (0 = default)")
	flag.IntVar(&opts.inflight, "inflight", 0, "max in-flight solve requests (0 = 4x workers)")
	flag.Int64Var(&opts.maxCells, "max-cells", 0, "per-request table cell cap (0 = default)")
	flag.Int64Var(&opts.cacheBytes, "cache-bytes", 0, "result cache bound in bytes (0 = default 64 MiB, negative disables)")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "graceful drain bound on shutdown")
	flag.StringVar(&opts.tracedir, "tracedir", "", "write a per-solve trace file into this directory")
	flag.StringVar(&opts.peers, "peers", "", "comma-separated peer lddpd base URLs; when set, POST /v1/fleet/solve shards solves across them")
	flag.IntVar(&opts.bands, "bands", 0, "fleet row bands (0 = one per peer; only with -peers)")
	flag.IntVar(&opts.phaseCols, "phase-cols", 0, "fleet block phase width in columns (0 = default; only with -peers)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "lddpd:", err)
		os.Exit(1)
	}
}

// run boots the service and blocks until ctx ends (the shutdown signal),
// then drains in the documented order: readiness flips first, the
// listener closes after in-flight requests finish (bounded by -drain),
// and the scheduler closes last. addrCh, when non-nil, receives the
// bound listener address once serving — the test hook for -addr :0.
func run(ctx context.Context, opts options, out io.Writer, addrCh chan<- string) error {
	if opts.tracedir != "" {
		if err := os.MkdirAll(opts.tracedir, 0o755); err != nil {
			return err
		}
	}
	// The fleet coordinator is built before the node server so its
	// counters can ride the node's /v1/metrics through the ExtraMetrics
	// hook; the handler still mounts beside the node mux, so
	// internal/server stays ignorant of the fleet layer.
	var coord *fleet.Coordinator
	var peerCount int
	if opts.peers != "" {
		var nodes []*client.Client
		for _, u := range strings.Split(opts.peers, ",") {
			c, err := client.New(strings.TrimSpace(u), client.WithCodec(client.CodecBinary))
			if err != nil {
				return fmt.Errorf("-peers: %w", err)
			}
			defer c.Close()
			nodes = append(nodes, c)
		}
		peerCount = len(nodes)
		var err error
		coord, err = fleet.New(fleet.Config{
			Nodes: nodes, Bands: opts.bands, PhaseCols: opts.phaseCols,
			TraceDir: opts.tracedir,
		})
		if err != nil {
			return err
		}
	}
	cfg := server.Config{
		Workers:     opts.workers,
		Queue:       opts.queue,
		MaxActive:   opts.active,
		MaxInflight: opts.inflight,
		MaxCells:    opts.maxCells,
		CacheBytes:  opts.cacheBytes,
		TraceDir:    opts.tracedir,
	}
	if coord != nil {
		cfg.ExtraMetrics = func(snap *lddp.MetricsSnapshot) {
			snap.Fleet = coord.MetricsSnapshot()
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		srv.Close()
		return err
	}
	handler := srv.Handler()
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/v1/fleet/solve", fleet.NewHandler(coord, srv, nil))
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintf(out, "lddpd: fleet coordinator over %d peers\n", peerCount)
	}
	if opts.debugAddr != "" {
		// The pprof/expvar surface rides http.DefaultServeMux (the pprof
		// import registers there) on its own listener, never the serving
		// port: profiling endpoints are an operator tool, not part of the
		// v1 API, and must not be exposed wherever the service is.
		dln, err := net.Listen("tcp", opts.debugAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("-debug-addr: %w", err)
		}
		defer dln.Close()
		go http.Serve(dln, nil) //nolint:errcheck // closed on shutdown
		fmt.Fprintf(out, "lddpd: debug (pprof) on %s\n", dln.Addr())
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// One structured line per boot: fleet-smoke runs several nodes into
	// one log stream, and every fact needed to tell them apart (and to
	// reproduce their config) is on this line.
	codec := "json"
	if coord != nil {
		codec = "binary"
	}
	fmt.Fprintf(out, "lddpd: serving on %s workers=%d inflight=%d peers=%d codec=%s cache-bytes=%d gomaxprocs=%d\n",
		ln.Addr(), srv.Config().Workers, srv.Config().MaxInflight,
		peerCount, codec, srv.Config().CacheBytes, runtime.GOMAXPROCS(0))
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "lddpd: draining %s bound=%s\n", ln.Addr(), opts.drain)
	// Readiness flips before the listener closes, so a load balancer
	// polling /readyz sees the drain while the port still answers.
	srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	shutdownErr := hs.Shutdown(shCtx)
	if coord != nil {
		coord.Close()
	}
	srv.Close()
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return fmt.Errorf("drain bound expired: %w", shutdownErr)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The drain-complete line names the same address as the startup
	// line, so interleaved multi-node logs pair up.
	fmt.Fprintf(out, "lddpd: drained %s\n", ln.Addr())
	return nil
}
