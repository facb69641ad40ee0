package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/lddp"
	"repro/lddp/api"
)

// Config configures a Server. The zero value selects all defaults.
type Config struct {
	// Workers, Queue and MaxActive configure the underlying shared
	// scheduler (lddp.NewScheduler semantics: <= 0 selects the scheduler
	// defaults).
	Workers, Queue, MaxActive int

	// MaxInflight bounds the solve requests admitted concurrently,
	// in front of the scheduler's own queue: past it the server answers
	// 429 immediately instead of deepening the queue. <= 0 selects
	// 4 * the resolved worker count.
	MaxInflight int

	// MaxCells, MaxInlineCells, MaxResponseCells and MaxBodyBytes are
	// the request-validation caps; <= 0 selects the Default* constants.
	MaxCells         int64
	MaxInlineCells   int
	MaxResponseCells int
	MaxBodyBytes     int64

	// RetryAfter is the pushback hint attached to 429/503 responses.
	// <= 0 selects one second.
	RetryAfter time.Duration

	// CacheBytes bounds the content-addressed result cache: completed
	// solves of declarative workloads are kept (LRU, size-aware) and
	// repeated requests answer without touching the scheduler. 0 selects
	// DefaultCacheBytes; negative disables the cache entirely.
	// Cache-Control: no-cache on a request bypasses the lookup,
	// no-store additionally skips the insert.
	CacheBytes int64

	// ErrorLog receives handler-level write failures (an encode error on
	// an already-started response can only be logged and aborted). Nil
	// selects log.Default().
	ErrorLog *log.Logger

	// TraceDir, when non-empty, records a runtime trace of every solve
	// and writes it as <TraceDir>/solve-<id>.json (Chrome/Perfetto
	// trace-event JSON, the lddptrace input format). A band solve whose
	// request carries a trace context also returns its trace in the
	// response, for the fleet coordinator to stitch.
	TraceDir string

	// ExtraMetrics, when non-nil, runs at /metrics scrape time to fill
	// snapshot sections owned outside the server — the fleet
	// coordinator's counters on nodes running one (cmd/lddpd wires
	// the coordinator's snapshot through here, keeping the server free
	// of a fleet dependency).
	ExtraMetrics func(*lddp.MetricsSnapshot)

	// Hooks are deterministic fault points for tests and the scenario
	// engine; the zero value is inert.
	Hooks Hooks
}

// Hooks exposes fixed points in the request lifecycle so fault
// injection can act at an exact moment instead of racing the handler —
// the scenario engine (internal/sim) parks admitted requests here to
// saturate the in-flight limiter deterministically, and kills or drains
// nodes "mid-solve" with the solve provably in the handler. Callbacks
// run on the handler goroutine: anything slow or blocking extends the
// request (and its limiter slot) by exactly that long, which is the
// point.
type Hooks struct {
	// OnSolveAdmitted runs after a request on any POST route clears
	// the in-flight limiter, before parsing; band is true only for a
	// band solve.
	OnSolveAdmitted func(band bool)
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxCells <= 0 {
		c.MaxCells = DefaultMaxCells
	}
	if c.MaxInlineCells <= 0 {
		c.MaxInlineCells = DefaultMaxInlineCells
	}
	if c.MaxResponseCells <= 0 {
		c.MaxResponseCells = DefaultMaxResponseCells
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.ErrorLog == nil {
		c.ErrorLog = log.Default()
	}
	return c
}

// Server is the lddpd solve service: HTTP handlers over one shared
// scheduler. Construct with New, mount Handler on an http.Server, and
// shut down with BeginDrain/Drain/Close (in that order — cmd/lddpd shows
// the full sequence). All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	sched *lddp.Scheduler
	cache *resultCache // nil when disabled

	inflight  chan struct{} // bounded in-flight limiter tokens
	active    atomic.Int64  // solve requests currently inside the handler
	draining  atomic.Bool
	wireStats wireStats

	traceSolves  atomic.Int64
	traceDropped atomic.Int64
}

// wireStats counts request/response codec traffic for the metrics
// snapshot's Wire section.
type wireStats struct {
	jsonRequests    atomic.Int64
	binaryRequests  atomic.Int64
	jsonResponses   atomic.Int64
	binaryResponses atomic.Int64
	binaryRejects   atomic.Int64
	requestBytes    atomic.Int64
	responseBytes   atomic.Int64
	haloValues      atomic.Int64
	haloBytes       atomic.Int64
}

func (ws *wireStats) snapshot() lddp.WireSnapshot {
	return lddp.WireSnapshot{
		JSONRequests:    ws.jsonRequests.Load(),
		BinaryRequests:  ws.binaryRequests.Load(),
		JSONResponses:   ws.jsonResponses.Load(),
		BinaryResponses: ws.binaryResponses.Load(),
		BinaryRejects:   ws.binaryRejects.Load(),
		RequestBytes:    ws.requestBytes.Load(),
		ResponseBytes:   ws.responseBytes.Load(),
		HaloValues:      ws.haloValues.Load(),
		HaloBytes:       ws.haloBytes.Load(),
	}
}

// countingReader counts body bytes actually consumed into a wireStats
// counter; it wraps the (already size-capped) request body.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error {
	if rc, ok := c.r.(io.Closer); ok {
		return rc.Close()
	}
	return nil
}

// countingResponseWriter counts response body bytes written. It
// forwards Flush so the binary band encoder's chunk flushing keeps
// working through the wrapper.
type countingResponseWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingResponseWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logf reports a handler-level failure on the configured error log.
func (s *Server) logf(format string, args ...any) {
	s.cfg.ErrorLog.Printf("lddpd: "+format, args...)
}

// New builds a Server and starts its scheduler.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s, err := lddp.NewScheduler(
		lddp.WithSchedulerWorkers(cfg.Workers),
		lddp.WithSchedulerQueue(cfg.Queue),
		lddp.WithSchedulerMaxActive(cfg.MaxActive),
	)
	if err != nil {
		return nil, err
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * s.Config().Workers
	}
	return &Server{
		cfg:      cfg,
		sched:    s,
		cache:    newResultCache(cfg.CacheBytes),
		inflight: make(chan struct{}, cfg.MaxInflight),
	}, nil
}

// CacheStats returns the result cache's counters (all-zero when the
// cache is disabled).
func (s *Server) CacheStats() lddp.CacheSnapshot { return s.cache.stats() }

// WireStats returns the codec traffic counters.
func (s *Server) WireStats() lddp.WireSnapshot { return s.wireStats.snapshot() }

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics returns the metrics view of the server's scheduler.
func (s *Server) Metrics() *lddp.Metrics { return lddp.NewMetrics(s.sched) }

// Handler returns the service mux. Every endpoint lives under the /v1
// prefix — POST /v1/solve, POST /v1/band/solve, GET /v1/healthz,
// GET /v1/readyz, GET /v1/metrics (JSON by default,
// ?format=prometheus for text exposition) — with the pre-versioning
// operational paths (/healthz, /readyz, /metrics) kept as aliases so
// existing probes and scrapers keep working. Unknown paths answer a JSON
// ErrorBody 404, not the text/plain default: every consumer of this
// service parses ErrorBody on failure, and a route typo should produce
// the same shape as every other refusal.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/band/solve", s.handleBandSolve)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// handleNotFound is the mux fallback: a JSON ErrorBody 404 naming the
// unmatched path.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.WriteError(w, http.StatusNotFound, "not_found", 0,
		fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
}

// BeginDrain flips the server into draining: GET /readyz answers 503 (so
// load balancers stop routing here) and new solve submissions are
// refused with 503, while already-admitted solves run to completion.
// Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain flips the server into draining and waits until every in-flight
// solve request has finished, or ctx ends — the bounded-drain step
// between "stop accepting" and Close. It returns ctx's cause when the
// bound expires with solves still running.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain expired with %d solves in flight: %w", s.active.Load(), context.Cause(ctx))
		case <-tick.C:
		}
	}
	return nil
}

// Close shuts the scheduler down (draining its admitted solves) and
// releases the server's resources. Call after Drain; a Close with
// requests still in flight lets them finish against the closing
// scheduler, which maps to 503s.
func (s *Server) Close() { s.sched.Close() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the metrics snapshot: compact JSON by default (a
// scrape endpoint is machine-read; pretty-printing every scrape re-buys
// the indent cost for nothing — pipe through jq to eyeball it),
// Prometheus text exposition under ?format=prometheus. Both render the
// same snapshot, extended at scrape time with the sections that live
// server-side (cache, codec counters, process gauges, and — through the
// ExtraMetrics hook — the fleet coordinator's). Snapshot copies the
// scheduler's counters under its mutex and marshals outside it, so a slow
// scraper never holds up the scheduler.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics().Snapshot()
	snap.Cache = s.cache.stats()
	snap.Wire = s.wireStats.snapshot()
	snap.Server = lddp.ServerSnapshot{
		InflightSolves:     s.active.Load(),
		TraceDroppedEvents: s.traceDropped.Load(),
		TraceSolves:        s.traceSolves.Load(),
	}
	if s.draining.Load() {
		snap.Server.Draining = 1
	}
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(&snap)
	}
	if r.URL.Query().Get("format") == "prometheus" {
		s.writePromMetrics(w, &snap)
		return
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(doc, '\n')); err != nil {
		s.logf("writing /metrics: %v", err)
	}
}

// WriteError renders one ErrorBody with the mapped HTTP status; 429 and
// 503 carry the Retry-After pushback in both header (whole seconds,
// rounded up) and body (milliseconds), and a nonzero id rides the body
// and the X-Lddp-Solve-Id header. It is the one error writer of every
// route the node serves, the fleet route mounted through Admit
// included.
func (s *Server) WriteError(w http.ResponseWriter, code int, status string, id int64, msg string) {
	body := api.ErrorBody{Status: status, Error: msg, ID: id}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		body.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
		secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	if id > 0 {
		w.Header().Set(api.SolveIDHeader, strconv.FormatInt(id, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// The status line is out; a failed body write means the client is
		// gone. Log and abort — writing more would interleave garbage.
		s.logf("writing %d error body: %v", code, err)
	}
}

// Admit serves a route whose body is one JSON SolveRequest through the
// node's request pipeline: the admission front (POST only, drain, the
// in-flight limiter, the body cap and the wire counters), the
// strict decoder and ValidateRequest, with a table over the cell cap
// answered 413. serve runs with a validated request and holds the
// in-flight slot until it returns. cmd/lddpd mounts the fleet
// coordinator's POST /v1/fleet/solve through it, so a fleet solve is
// admitted and bounded like any other solve on its node.
func (s *Server) Admit(serve func(http.ResponseWriter, *http.Request, *api.SolveRequest)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w, _, ok := s.admit(w, r, false)
		if !ok {
			return
		}
		defer s.release()
		if req, _, ok := s.decodeSolve(w, r, false); ok {
			serve(w, r, req)
		}
	})
}

// admit is the admission front of every POST route: method, drain, the
// in-flight limiter (which sits in front of scheduler admission, so a
// saturated service answers immediately instead of stacking HTTP
// handlers behind the scheduler queue), the admission hook, and the
// wrappers that count the body bytes both ways and cap the request
// body. It answers the request itself and returns false on a refusal;
// otherwise the caller holds one in-flight slot and must call release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, band bool) (http.ResponseWriter, negotiation, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.WriteError(w, http.StatusMethodNotAllowed, "invalid", 0, "POST required")
		return w, negotiation{}, false
	}
	if s.draining.Load() {
		s.WriteError(w, http.StatusServiceUnavailable, "draining", 0, "server is draining")
		return w, negotiation{}, false
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.WriteError(w, http.StatusTooManyRequests, "rejected", 0,
			fmt.Sprintf("server at its in-flight limit (%d)", s.cfg.MaxInflight))
		return w, negotiation{}, false
	}
	s.active.Add(1)
	if s.cfg.Hooks.OnSolveAdmitted != nil {
		s.cfg.Hooks.OnSolveAdmitted(band)
	}
	w = &countingResponseWriter{ResponseWriter: w, n: &s.wireStats.responseBytes}
	r.Body = &countingReader{
		r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		n: &s.wireStats.requestBytes,
	}
	return w, negotiate(r), true
}

// release frees the in-flight slot admit took.
func (s *Server) release() {
	s.active.Add(-1)
	<-s.inflight
}

// countRequest counts one decoded request body, and a frame's decode
// failure, in the wire counters, passing err through.
func (s *Server) countRequest(binary bool, err error) error {
	if !binary {
		s.wireStats.jsonRequests.Add(1)
		return err
	}
	s.wireStats.binaryRequests.Add(1)
	if err != nil {
		s.wireStats.binaryRejects.Add(1)
	}
	return err
}

// decodeSolve decodes a solve request body under the request codec and
// validates it, answering 400 itself when either fails — 413 for a
// table over the cell cap. release returns a frame's pooled inline
// cells (see ParseBinaryRequest).
func (s *Server) decodeSolve(w http.ResponseWriter, r *http.Request, binary bool) (req *api.SolveRequest, release func(), ok bool) {
	var err error
	release = func() {}
	if binary {
		req, release, err = ParseBinaryRequest(r.Body, s.cfg.MaxInlineCells)
	} else {
		req, err = ParseSolveRequest(r.Body)
	}
	if err = s.countRequest(binary, err); err != nil {
		s.WriteError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return nil, nil, false
	}
	if err := s.ValidateRequest(req); err != nil {
		release()
		code := http.StatusBadRequest
		if req.Rows > 0 && req.Cols > 0 && tooManyCells(req.Rows, req.Cols, s.cfg.MaxCells) {
			code = http.StatusRequestEntityTooLarge
		}
		s.WriteError(w, code, "invalid", 0, err.Error())
		return nil, nil, false
	}
	return req, release, true
}

// handleSolve runs one POST /v1/solve request through the pipeline —
// admit, decode, validate, build, result-cache lookup, run, respond —
// where run maps the scheduler's outcome trichotomy onto the wire:
//
//	done                          -> 200 SolveResponse
//	*Rejected (queue full)        -> 429 + Retry-After
//	*Rejected (closed / draining) -> 503 + Retry-After
//	*Rejected (deadline queued)   -> 408
//	*Canceled (deadline mid-run)  -> 408
//	*Canceled (caller went away)  -> 499 (best-effort; nobody is reading)
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	w, neg, ok := s.admit(w, r, false)
	if !ok {
		return
	}
	defer s.release()
	req, releaseInline, ok := s.decodeSolve(w, r, neg.binaryRequest)
	if !ok {
		return
	}
	problem, err := BuildProblem(req)
	if err != nil {
		releaseInline()
		s.WriteError(w, http.StatusBadRequest, "invalid", 0, err.Error())
		return
	}
	includeCells := req.ReturnCells && int64(problem.Rows)*int64(problem.Cols) <= int64(s.cfg.MaxResponseCells)

	// Result-cache lookup: workloads are declarative, so the key tuple
	// identifies the result exactly; a hit answers without touching the
	// scheduler.
	start := time.Now()
	key := keyForRequest(req, problem.Deps)
	if s.cache != nil {
		if neg.noCache {
			s.cache.bypass()
			w.Header().Set(CacheHeader, "bypass")
		} else if e := s.cache.get(key); e != nil {
			releaseInline()
			w.Header().Set(CacheHeader, "hit")
			resp := &api.SolveResponse{
				ID: e.id, Status: "done", Cached: true,
				Rows: problem.Rows, Cols: problem.Cols,
				Mask: e.mask, Pattern: e.pattern, Digest: e.digest,
				ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
			}
			s.writeResult(w, neg, e.id, resp, &resp.Cells, cellsIf(includeCells, e.cells), resp.Cols)
			return
		} else {
			w.Header().Set(CacheHeader, "miss")
		}
	}

	// No releaseInline when run fails: on a cancellation the scheduler's
	// workers may still be quiescing against the problem's inline cells,
	// so the buffer is left to the garbage collector.
	id, flat, ok := s.run(w, r, problem, req.Strategy, req.DeadlineMS, s.tracer(nil), nil)
	if !ok {
		return
	}
	digest := DigestCells(problem.Rows, problem.Cols, flat)
	releaseInline()
	elapsed := time.Since(start)

	resp := &api.SolveResponse{
		ID:        id,
		Status:    "done",
		Rows:      problem.Rows,
		Cols:      problem.Cols,
		Mask:      problem.Deps.String(),
		Pattern:   lddp.Classify(problem.Deps).String(),
		Digest:    digest,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
	}
	if s.cache != nil && !neg.noStore {
		// The entry takes ownership of the grid's backing slice: result
		// grids are immutable after Wait, so no copy is needed.
		s.cache.put(&cacheEntry{
			key: key, id: id, cells: flat,
			digest: digest, pattern: resp.Pattern, mask: resp.Mask,
		})
	}
	s.writeResult(w, neg, id, resp, &resp.Cells, cellsIf(includeCells, flat), resp.Cols)
}

// cellsIf returns flat when a response includes its cells, nil otherwise.
func cellsIf(include bool, flat []int64) []int64 {
	if include {
		return flat
	}
	return nil
}

// tracer returns a fresh tracer for one solve when the server records
// traces, nil otherwise. A band request's trace context tags it with the
// fleet block it solves, so its trace file and the trace its response
// carries both name their fleet solve.
func (s *Server) tracer(tag *api.TraceContext) *lddp.Tracer {
	if s.cfg.TraceDir == "" {
		return nil
	}
	t := lddp.NewTracer()
	if tag != nil {
		t.SetFleetTag(tag.FleetID, tag.Band, tag.Phase)
	}
	return t
}

// run submits problem to the scheduler under the request's deadline and
// strategy and waits for it, recording into tracer (nil records
// nothing) and writing its trace file. The solve computes into cells
// (nil allocates; see lddp.SubmitInto). On success it returns the solve
// ID and the row-major result; otherwise it has answered the request
// itself and ok is false.
func (s *Server) run(w http.ResponseWriter, r *http.Request, problem *lddp.Problem[int64], strategy string, deadlineMS int64, tracer *lddp.Tracer, cells []int64) (id int64, flat []int64, ok bool) {
	ctx := r.Context()
	if deadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer cancel()
	}
	opts := []lddp.Option{}
	switch strategy {
	case "parallel":
		opts = append(opts, lddp.WithStrategy(lddp.Parallel))
	case "async":
		opts = append(opts, lddp.WithStrategy(lddp.Async))
	}
	if tracer != nil {
		opts = append(opts, lddp.WithTracer(tracer))
	}
	sub, err := lddp.SubmitInto(ctx, s.sched, problem, cells, opts...)
	if err != nil {
		s.writeSubmitError(w, r, err)
		return 0, nil, false
	}
	id = sub.ID()
	grid, err := sub.Wait()
	if tracer != nil {
		s.writeTraceFile(id, tracer)
	}
	if err != nil {
		s.writeOutcomeError(w, r, id, err)
		return id, nil, false
	}
	return id, grid.RowMajorData(), true
}

// writeSubmitError maps a synchronous Submit refusal onto the wire.
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	var rej *lddp.Rejected
	switch {
	case errors.Is(err, lddp.ErrQueueFull):
		var id int64
		msg := "admission queue full"
		if errors.As(err, &rej) {
			id = rej.ID
			msg = fmt.Sprintf("admission queue full (depth %d)", rej.QueueDepth)
		}
		s.WriteError(w, http.StatusTooManyRequests, "rejected", id, msg)
	case errors.Is(err, lddp.ErrSchedulerClosed):
		s.WriteError(w, http.StatusServiceUnavailable, "draining", 0, "scheduler closed")
	case errors.As(err, &rej):
		// Rejected for a context cause: the deadline (or the caller)
		// ended the request before admission.
		s.writeTimeout(w, r, rej.ID, "rejected", err)
	default:
		// Validation errors from the problem or options.
		s.WriteError(w, http.StatusBadRequest, "invalid", 0, err.Error())
	}
}

// writeOutcomeError maps a post-admission failure (Wait's trichotomy
// minus success) onto the wire.
func (s *Server) writeOutcomeError(w http.ResponseWriter, r *http.Request, id int64, err error) {
	var rej *lddp.Rejected
	var can *lddp.Canceled
	switch {
	case errors.Is(err, lddp.ErrQueueFull):
		s.WriteError(w, http.StatusTooManyRequests, "rejected", id, err.Error())
	case errors.Is(err, lddp.ErrSchedulerClosed):
		s.WriteError(w, http.StatusServiceUnavailable, "draining", id, "scheduler closed")
	case errors.As(err, &can):
		s.writeTimeout(w, r, id, "canceled", err)
	case errors.As(err, &rej):
		s.writeTimeout(w, r, id, "rejected", err)
	default:
		s.WriteError(w, http.StatusInternalServerError, "error", id, err.Error())
	}
}

// writeTimeout distinguishes the solve deadline expiring (408 — the
// request's own budget ran out) from the caller abandoning the request
// (499, nginx-style; the response is best-effort since nobody is
// reading).
func (s *Server) writeTimeout(w http.ResponseWriter, r *http.Request, id int64, status string, err error) {
	code := http.StatusRequestTimeout
	if r.Context().Err() != nil && !errors.Is(err, context.DeadlineExceeded) {
		code = 499
	}
	s.WriteError(w, code, status, id, err.Error())
}

// writeTraceFile persists one solve's trace, best-effort: a full disk or
// bad TraceDir must not fail the solve that produced the trace. It also
// feeds the trace-loss counter — ring overwrites are invisible in the
// file itself until an analysis comes up short, so they surface in the
// metrics snapshot instead.
func (s *Server) writeTraceFile(id int64, tracer *lddp.Tracer) {
	s.traceDropped.Add(tracer.Dropped())
	f, err := os.Create(filepath.Join(s.cfg.TraceDir, fmt.Sprintf("solve-%d.json", id)))
	if err != nil {
		return
	}
	err = lddp.WriteTrace(f, tracer)
	if cerr := f.Close(); err == nil && cerr == nil {
		s.traceSolves.Add(1)
	}
}
