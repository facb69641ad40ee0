package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

const (
	// serveRate is the offered load in requests per second, about 40% of
	// what this mix sustains in a closed loop on the 2-vCPU host the
	// bounds were set on (README.md, "serve").
	serveRate = 120
	// serveLimit is goodput's latency limit, about twice the p99 of that
	// host while calm.
	serveLimit = 120 * time.Millisecond
	// serveSenders and serveWorkers: two sender goroutines over at most
	// two connections, against a node with one scheduler worker per core.
	serveSenders = 2
	serveWorkers = 2
	// Table sides are drawn log-uniform in [serveMinSide, serveMaxSide].
	serveMinSide    = 64
	serveMaxSide    = 512
	serveSideStrata = 4
	// One request in serveRepeatEvery repeats an earlier one verbatim.
	// Half reach back at most serveNearRepeat requests, well within the
	// 64 MB result cache (about 170 mean-size tables); half reach back
	// serveFarRepeatMin to serveFarRepeatMax, past what it holds.
	serveRepeatEvery  = 4
	serveNearRepeat   = 32
	serveFarRepeatMin = 400
	serveFarRepeatMax = 1200
	// serveWarmupSide is the side of the warm-up tables: one per kind and
	// strategy, codecs alternating, run closed-loop before the window.
	// Their shapes are fixed so that set-up costs the same for every seed.
	serveWarmupSide = 96
	// serveRecordedBodies request bodies per codec are kept by the traced
	// run and replayed through the server's stage functions.
	serveRecordedBodies = 128
	// serveCodecTables oracle tables are encoded and decoded to time the
	// wire codec.
	serveCodecTables = 8
)

var (
	serveKinds      = []string{api.KindMix, api.KindServe, api.KindCost, api.KindAlign}
	serveStrategies = []string{"auto", "parallel", "async"}
)

// serveOp is one request of the serve mix.
type serveOp struct {
	Req    *api.SolveRequest `json:"req"`
	Binary bool              `json:"binary"`
	// Repeat is the index of the op this one repeats verbatim (the same
	// request value and codec), or -1 for a fresh request.
	Repeat int `json:"repeat"`
}

// servePlan is everything the serve workload sends, generated from the
// seed alone: the arrival schedule, its requests, and the warm-up.
type servePlan struct {
	Due    []time.Duration `json:"due"`
	Ops    []serveOp       `json:"ops"`
	Warmup []serveOp       `json:"warmup"`
}

func newServePlan(seed uint64, window time.Duration) *servePlan {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	p := &servePlan{Due: poissonSchedule(rng, serveRate, window)}
	d := &serveDealer{rng: rng}
	p.Ops = make([]serveOp, 0, len(p.Due))
	for range p.Due {
		p.Ops = append(p.Ops, d.next(p.Ops))
	}
	for i, kind := range serveKinds {
		for j, st := range serveStrategies {
			req := &api.SolveRequest{
				Rows: serveWarmupSide, Cols: serveWarmupSide, Strategy: st,
				Workload: api.WorkloadSpec{Kind: kind, Seed: rng.Int64()},
			}
			p.Warmup = append(p.Warmup, serveOp{Req: req, Binary: (i+j)%2 == 1, Repeat: -1})
		}
	}
	return p
}

// serveShape is the part of a request that sets most of its cost.
type serveShape struct {
	strategy               string
	rowStratum, colStratum int
}

// serveDealer deals the serve mix from shuffled decks rather than
// independent draws, so every window carries the same proportions: each
// (strategy, row-side stratum, column-side stratum) combination, kind,
// mask, codec, repeat distance and payload option comes up a fixed
// number of times per deck. The seed still picks the order, the sides
// within their strata, the workload seeds and the arrival times.
type serveDealer struct {
	rng     *rand.Rand
	shapes  []serveShape
	kinds   []string
	masks   []lddp.DepMask
	codecs  []bool
	repeats []bool // a quarter true: repeat an earlier request
	far     []bool // half true: a repeat reaches past the cache
	inline  []bool // a quarter true: a small cost table carries its cells
	cells   []bool // half true: a small table asks for its cells
}

// deal pops the next card of deck, refilling it with a shuffled copy of
// full when it runs out.
func deal[T any](rng *rand.Rand, deck *[]T, full func() []T) T {
	if len(*deck) == 0 {
		*deck = full()
		rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	card := (*deck)[0]
	*deck = (*deck)[1:]
	return card
}

// oneIn returns a deck holding one true card among n.
func oneIn(n int) func() []bool {
	return func() []bool {
		deck := make([]bool, n)
		deck[0] = true
		return deck
	}
}

func (d *serveDealer) next(earlier []serveOp) serveOp {
	if len(earlier) == 0 || !deal(d.rng, &d.repeats, oneIn(serveRepeatEvery)) {
		return d.fresh()
	}
	var back int
	if far := deal(d.rng, &d.far, oneIn(2)); !far || len(earlier) < serveFarRepeatMin {
		back = 1 + d.rng.IntN(min(serveNearRepeat, len(earlier)))
	} else {
		back = serveFarRepeatMin + d.rng.IntN(min(serveFarRepeatMax, len(earlier))-serveFarRepeatMin+1)
	}
	j := len(earlier) - back
	src := earlier[j]
	if src.Repeat >= 0 {
		j = src.Repeat
	}
	return serveOp{Req: src.Req, Binary: src.Binary, Repeat: j}
}

func (d *serveDealer) fresh() serveOp {
	sh := deal(d.rng, &d.shapes, func() []serveShape {
		var all []serveShape
		for _, st := range serveStrategies {
			for r := range serveSideStrata {
				for c := range serveSideStrata {
					all = append(all, serveShape{st, r, c})
				}
			}
		}
		return all
	})
	kind := deal(d.rng, &d.kinds, func() []string { return append([]string(nil), serveKinds...) })
	req := &api.SolveRequest{
		Rows:     d.side(sh.rowStratum),
		Cols:     d.side(sh.colStratum),
		Strategy: sh.strategy,
		Workload: api.WorkloadSpec{Kind: kind, Seed: d.rng.Int64()},
	}
	if kind != api.KindAlign {
		req.Mask = deal(d.rng, &d.masks, lddp.AllDepMasks).String()
	}
	cells := req.Rows * req.Cols
	if kind == api.KindCost && cells <= server.DefaultMaxInlineCells && deal(d.rng, &d.inline, oneIn(4)) {
		req.Workload.Cells = server.GeneratedCostCells(req.Workload.Seed, req.Rows, req.Cols)
	}
	req.ReturnCells = cells <= server.DefaultMaxResponseCells && deal(d.rng, &d.cells, oneIn(2))
	binary := deal(d.rng, &d.codecs, oneIn(2))
	return serveOp{Req: req, Binary: binary, Repeat: -1}
}

// side draws a table side log-uniformly within one of serveSideStrata
// equal slices of [serveMinSide, serveMaxSide] on the log scale.
func (d *serveDealer) side(stratum int) int {
	u := (float64(stratum) + d.rng.Float64()) / serveSideStrata
	return int(math.Round(serveMinSide * math.Pow(serveMaxSide/serveMinSide, u)))
}

// serveSystem is the running serve workload: one node and a JSON and a
// binary client sharing one two-connection transport.
type serveSystem struct {
	plan     *servePlan
	node     *node
	tr       *http.Transport
	json     *client.Client
	binary   *client.Client
	handlers *handlerLog   // traced runs only
	bodies   *bodyRecorder // traced runs only
	seq      atomic.Int64
}

func startServe(cfg config) (*serveSystem, error) {
	s := &serveSystem{plan: newServePlan(cfg.seed, cfg.window)}
	var wrap func(http.Handler) http.Handler
	if cfg.traced {
		s.handlers = newHandlerLog()
		s.bodies = &bodyRecorder{limit: serveRecordedBodies}
		wrap = func(h http.Handler) http.Handler { return s.handlers.wrap(0, h) }
	}
	n, err := startNode(server.Config{Workers: serveWorkers}, wrap)
	if err != nil {
		return nil, err
	}
	s.node = n
	s.tr = newTransport()
	var rt http.RoundTripper = s.tr
	if cfg.traced {
		rt = &tracingTransport{base: s.tr, seq: &s.seq, bodies: s.bodies}
	}
	if s.json, err = client.New(n.url, client.WithTransport(rt)); err == nil {
		s.binary, err = client.New(n.url, client.WithTransport(rt), client.WithCodec(client.CodecBinary))
	}
	for i := 0; err == nil && i < len(s.plan.Warmup); i++ {
		op := s.plan.Warmup[i]
		if _, err = s.client(op).Solve(context.Background(), op.Req); err != nil {
			err = fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *serveSystem) client(op serveOp) *client.Client {
	if op.Binary {
		return s.binary
	}
	return s.json
}

func (s *serveSystem) stop() {
	s.node.stop()
	s.tr.CloseIdleConnections()
}

// serveResult is one request's outcome, kept until the oracle runs.
type serveResult struct {
	resp *api.SolveResponse // nil unless answered 200
	// cellsOK: the returned cells re-digest to the response digest, and
	// cells came back exactly when the request asked for them.
	cellsOK bool
	trace   *opTrace // traced requests only
	t0, t1  time.Time
}

// runServe sends the seeded Poisson schedule open-loop and reports
// latency from each request's scheduled send time.
func runServe(cfg config) (*report, error) {
	s, setup, err := repeatSetup(func() (*serveSystem, error) { return startServe(cfg) }, (*serveSystem).stop)
	if err != nil {
		return nil, err
	}
	plan := s.plan
	results := make([]serveResult, len(plan.Ops))
	send := func(i int) error {
		op := plan.Ops[i]
		ctx := context.Background()
		var ot *opTrace
		// A traced run traces every other request, so trace.overhead_ratio
		// compares halves that share the same schedule and host drift.
		if cfg.traced && i%2 == 1 {
			ot = &opTrace{}
			ctx = withOpTrace(ctx, ot)
		}
		t0 := time.Now()
		resp, err := s.client(op).Solve(ctx, op.Req)
		results[i] = serveResult{resp: resp, trace: ot, t0: t0, t1: time.Now()}
		return err
	}
	verify := func(i int) {
		r := &results[i]
		if r.resp == nil {
			return
		}
		req := plan.Ops[i].Req
		wantCells := req.ReturnCells && req.Rows*req.Cols <= server.DefaultMaxResponseCells
		r.cellsOK = (r.resp.Cells != nil) == wantCells
		if r.resp.Cells != nil {
			want, err := strconv.ParseUint(r.resp.Digest, 16, 64)
			r.cellsOK = r.cellsOK && err == nil && rowsDigest(r.resp.Rows, r.resp.Cols, r.resp.Cells) == want
			r.resp.Cells = nil
		}
	}

	sched0 := s.node.srv.Metrics().Snapshot().Sched
	cache0, wire0 := s.node.srv.CacheStats(), s.node.srv.WireStats()
	before := readAllocs()
	recs, start := openLoop(plan.Due, serveSenders, send, verify)
	used := readAllocs().since(before)
	sched1 := s.node.srv.Metrics().Snapshot().Sched
	cache1, wire1 := s.node.srv.CacheStats(), s.node.srv.WireStats()
	s.stop() // waits for every handler, so all handler spans are in

	rep := &report{correct: true, attempted: int64(len(plan.Ops))}
	var cells float64
	lat := make([]float64, len(recs))
	good := 0
	for i, rec := range recs {
		req := plan.Ops[i].Req
		cells += float64(req.Rows * req.Cols)
		lat[i] = math.Inf(1) // a failed request misses every limit
		if rec.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				rep.notef("request %d failed: %v", i, rec.err)
			}
			continue
		}
		lat[i] = rec.latency().Seconds() * 1e3
		if rec.latency() <= serveLimit {
			good++
		}
	}
	oracle, err := serveOracle(plan, results)
	if err != nil {
		return nil, err
	}
	oracle.check(rep, plan, results)
	rep.notef("serve: %d requests at %d/s over %.0fs, %d senders, limit %v; %d distinct tables checked against the sequential oracle",
		len(plan.Ops), serveRate, cfg.window.Seconds(), serveSenders, serveLimit, len(oracle.digest))

	if cfg.traced {
		return rep, serveTraced(rep, s, plan, recs, results, start, oracle, cfg,
			sched1, sched0, cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses, wire1, wire0)
	}
	// The tails are serve's own breakdown: the result line carries only
	// metrics every workload has, and tables has no tail.
	for _, t := range []struct {
		name string
		q    float64
	}{{"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		if v, err := tailPercentile(lat, t.q); err == nil {
			rep.detail(t.name, "ms", v, len(lat))
		} else {
			rep.notef("%s: %v", t.name, err)
		}
	}
	rep.add("setup_s", "s", setup, setupRepeats)
	rep.add("latency_ms", "ms", median(lat), len(lat))
	rep.add("goodput_per_s", "1/s", float64(good)/cfg.window.Seconds(), len(lat))
	rep.add("alloc_bytes_per_cell", "B/cell", float64(used.bytes)/cells, 0)
	rep.add("allocs_per_op", "allocs/op", float64(used.objects)/float64(len(recs)), 0)
	return rep, nil
}

// rowsDigest is wire.CellsDigest over a table given as rows, folded in
// place so that checking returned cells allocates nothing the window's
// allocation counts would charge to the program.
func rowsDigest(rows, cols int, cells [][]int64) uint64 {
	h := wire.DigestWord(wire.DigestInit(), uint64(rows)<<32|uint64(cols))
	for _, row := range cells {
		for _, v := range row {
			h = wire.DigestWord(h, uint64(v))
		}
	}
	return h
}

// serveOracleResult holds the sequential oracle's digest of every
// distinct request answered 200, plus what the traced run times on the
// oracle tables.
type serveOracleResult struct {
	digest      map[*api.SolveRequest]string
	digestNS    int64 // time spent in server.DigestCells
	digestCells int64
	tables      [][]int64 // a few oracle tables for the wire codec timing
	shapes      [][2]int
}

// serveOracle solves every distinct request that was answered 200 with
// the sequential executor, on two goroutines, after the window.
func serveOracle(plan *servePlan, results []serveResult) (*serveOracleResult, error) {
	var reqs []*api.SolveRequest
	seen := map[*api.SolveRequest]bool{}
	for i, r := range results {
		if req := plan.Ops[i].Req; r.resp != nil && !seen[req] {
			seen[req] = true
			reqs = append(reqs, req)
		}
	}
	out := &serveOracleResult{digest: make(map[*api.SolveRequest]string, len(reqs))}
	var mu sync.Mutex
	var next atomic.Int64
	var firstErr error
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				p, err := server.BuildProblem(req)
				var res *lddp.Result[int64]
				if err == nil {
					res, err = lddp.Solve(context.Background(), p, lddp.WithStrategy(lddp.Sequential))
				}
				if err != nil {
					mu.Lock()
					firstErr = errors.Join(firstErr, fmt.Errorf("oracle for %dx%d %s: %w", req.Rows, req.Cols, req.Workload.Kind, err))
					mu.Unlock()
					return
				}
				flat := res.Grid.RowMajorData()
				if flat == nil {
					flat = flattenGrid(res.Grid)
				}
				t0 := time.Now()
				d := server.DigestCells(p.Rows, p.Cols, flat)
				ns := time.Since(t0).Nanoseconds()
				mu.Lock()
				out.digest[req] = d
				out.digestNS += ns
				out.digestCells += int64(len(flat))
				if len(out.tables) < serveCodecTables {
					out.tables = append(out.tables, flat)
					out.shapes = append(out.shapes, [2]int{p.Rows, p.Cols})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func flattenGrid(g *lddp.Grid[int64]) []int64 {
	flat := make([]int64, 0, g.Rows()*g.Cols())
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			flat = append(flat, g.At(i, j))
		}
	}
	return flat
}

// check compares every 200 response with the oracle digest of its
// request and the digest of its own returned cells.
func (o *serveOracleResult) check(rep *report, plan *servePlan, results []serveResult) {
	bad := 0
	for i, r := range results {
		if r.resp == nil {
			continue
		}
		req := plan.Ops[i].Req
		if want := o.digest[req]; r.resp.Digest != want || !r.cellsOK {
			rep.correct = false
			if bad++; bad <= 5 {
				rep.notef("MISMATCH request %d (%dx%d %s %s %s): digest %s, oracle %s, cells ok %v",
					i, req.Rows, req.Cols, req.Workload.Kind, req.Mask, req.Strategy, r.resp.Digest, want, r.cellsOK)
			}
		}
	}
}

const (
	laneLoadgen = iota
	laneClient
	laneHTTP
	laneServer
)

// serveTraced derives the per-layer metrics from the traced half of the
// requests, the server's exported counters, and replays of the recorded
// request bodies through the server's public stage functions.
func serveTraced(rep *report, s *serveSystem, plan *servePlan, recs []sendRecord, results []serveResult,
	start time.Time, oracle *serveOracleResult, cfg config,
	sched1, sched0 lddp.SchedSnapshot, hits, misses int64, wire1, wire0 lddp.WireSnapshot) error {
	spans := newSpanLog("loadgen", "client", "http", "server")
	var tracedLat, untracedLat, solveMS, selfUS, hitMS, overheadUS, transferUS, lags []float64
	trips, ops := 0, 0
	for i, r := range results {
		rec := recs[i]
		lags = append(lags, rec.lag().Seconds()*1e3)
		if r.trace == nil {
			if rec.err == nil {
				untracedLat = append(untracedLat, rec.latency().Seconds()*1e3)
			}
			continue
		}
		ops++
		ts := r.trace.snapshot()
		trips += len(ts)
		var id int64
		if r.resp != nil {
			id = r.resp.ID
		}
		spans.add(laneLoadgen, "request", id, 0, start.Add(rec.due), start.Add(rec.end))
		spans.add(laneClient, "client.Solve", id, 0, r.t0, r.t1)
		inTrips := time.Duration(0)
		for _, t := range ts {
			inTrips += t.end.Sub(t.start)
			spans.add(laneHTTP, "round trip", t.solveID, 0, t.start, t.end)
			if h, ok := s.handlers.get(t.seq); ok {
				spans.add(laneServer, "handler", t.solveID, 0, h.start, h.end)
			}
		}
		overheadUS = append(overheadUS, float64((r.t1.Sub(r.t0)-inTrips).Nanoseconds())/1e3)
		if rec.err != nil || len(ts) == 0 {
			continue
		}
		tracedLat = append(tracedLat, rec.latency().Seconds()*1e3)
		last := ts[len(ts)-1]
		h, ok := s.handlers.get(last.seq)
		if !ok {
			return fmt.Errorf("no handler span for traced request %d", i)
		}
		handler := h.end.Sub(h.start)
		selfUS = append(selfUS, float64(handler.Nanoseconds())/1e3-r.resp.ElapsedMS*1e3)
		transferUS = append(transferUS, float64((last.end.Sub(last.start)-handler).Nanoseconds())/1e3)
		if r.resp.Cached {
			hitMS = append(hitMS, handler.Seconds()*1e3)
		} else {
			solveMS = append(solveMS, r.resp.ElapsedMS)
		}
	}

	rep.detail("sched.solve_ms_p50", "ms", median(solveMS), len(solveMS))
	started := sched1.Started - sched0.Started
	rep.detail("sched.queue_wait_ms_mean", "ms", float64(sched1.QueueWaitNS-sched0.QueueWaitNS)/float64(started)/1e6, int(started))
	rep.detail("sched.queue_wait_ms_max", "ms", float64(sched1.MaxQueueWaitNS)/1e6, int(started))
	rep.detail("server.handler_self_us_p50", "us", median(selfUS), len(selfUS))
	if err := serveStageTimings(rep, s, oracle); err != nil {
		return err
	}
	rep.detail("server.cache_hit_ratio", "1", float64(hits)/float64(hits+misses), int(hits+misses))
	rep.detail("server.cache_hit_ms_p50", "ms", median(hitMS), len(hitMS))
	reqs := (wire1.JSONRequests + wire1.BinaryRequests) - (wire0.JSONRequests + wire0.BinaryRequests)
	resps := (wire1.JSONResponses + wire1.BinaryResponses) - (wire0.JSONResponses + wire0.BinaryResponses)
	rep.detail("wire.request_bytes_per_op", "B/op", float64(wire1.RequestBytes-wire0.RequestBytes)/float64(reqs), int(reqs))
	rep.detail("wire.response_bytes_per_op", "B/op", float64(wire1.ResponseBytes-wire0.ResponseBytes)/float64(resps), int(resps))
	enc, dec, err := codecTimings(oracle)
	if err != nil {
		return err
	}
	rep.detail("wire.encode_ns_per_cell", "ns/cell", enc, len(oracle.tables))
	rep.detail("wire.decode_ns_per_cell", "ns/cell", dec, len(oracle.tables))
	rep.detail("client.overhead_us_p50", "us", median(overheadUS), len(overheadUS))
	rep.detail("client.attempts_per_op", "1", float64(trips)/float64(ops), ops)
	rep.detail("http.transfer_us_p50", "us", median(transferUS), len(transferUS))
	if lagP99, err := tailPercentile(lags, 0.99); err == nil {
		rep.detail("loadgen.lag_ms_p99", "ms", lagP99, len(lags))
	} else {
		rep.notef("loadgen.lag_ms_p99: %v", err)
	}
	rep.detail("loadgen.lag_ms_max", "ms", maxOf(lags), len(lags))
	rep.add("solve_ms", "ms", median(solveMS), len(solveMS))
	rep.add("trace.overhead_ratio", "1", median(tracedLat)/median(untracedLat), len(tracedLat))
	return spans.write(cfg.traceOut, "perfbench-serve")
}

// serveStageTimings replays the recorded request bodies through the
// server's public stage functions: parse (per codec), validate, build,
// and times the digest fold on the oracle tables.
func serveStageTimings(rep *report, s *serveSystem, oracle *serveOracleResult) error {
	var parseJSON, parseBinary, validate, build []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	stages := func(req *api.SolveRequest) error {
		t0 := time.Now()
		if err := s.node.srv.ValidateRequest(req); err != nil {
			return err
		}
		validate = append(validate, us(t0))
		t0 = time.Now()
		if _, err := server.BuildProblem(req); err != nil {
			return err
		}
		build = append(build, us(t0))
		return nil
	}
	for _, b := range s.bodies.json {
		t0 := time.Now()
		req, err := server.ParseSolveRequest(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("replaying a JSON body: %w", err)
		}
		parseJSON = append(parseJSON, us(t0))
		if err := stages(req); err != nil {
			return fmt.Errorf("replaying a JSON body: %w", err)
		}
	}
	for _, b := range s.bodies.binary {
		t0 := time.Now()
		req, release, err := server.ParseBinaryRequest(bytes.NewReader(b), server.DefaultMaxInlineCells)
		if err != nil {
			return fmt.Errorf("replaying a binary body: %w", err)
		}
		parseBinary = append(parseBinary, us(t0))
		err = stages(req)
		release()
		if err != nil {
			return fmt.Errorf("replaying a binary body: %w", err)
		}
	}
	rep.detail("server.parse_us.json", "us", median(parseJSON), len(parseJSON))
	rep.detail("server.parse_us.binary", "us", median(parseBinary), len(parseBinary))
	rep.detail("server.validate_us", "us", median(validate), len(validate))
	rep.detail("server.build_us", "us", median(build), len(build))
	rep.detail("server.digest_ns_per_cell", "ns/cell", float64(oracle.digestNS)/float64(oracle.digestCells), len(oracle.digest))
	return nil
}

// codecTimings encodes and decodes a few oracle tables as binary
// response frames and returns nanoseconds per cell for each direction.
func codecTimings(oracle *serveOracleResult) (enc, dec float64, err error) {
	var encNS, decNS, cells int64
	var buf bytes.Buffer
	for k, flat := range oracle.tables {
		hdr := api.SolveResponse{Status: "done", Rows: oracle.shapes[k][0], Cols: oracle.shapes[k][1]}
		buf.Reset()
		t0 := time.Now()
		e := wire.NewEncoder(&buf)
		err = e.Header(hdr)
		if err == nil {
			err = e.Cells(flat)
		}
		if err == nil {
			err = e.Close()
		}
		encNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return 0, 0, fmt.Errorf("encoding a frame: %w", err)
		}
		t0 = time.Now()
		d := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		_, err = d.Header()
		var got []int64
		if err == nil {
			got, err = d.Cells(nil)
		}
		if err == nil {
			err = d.Close()
		}
		d.Release()
		decNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return 0, 0, fmt.Errorf("decoding a frame: %w", err)
		}
		if len(got) != len(flat) {
			return 0, 0, fmt.Errorf("decoded %d cells of %d", len(got), len(flat))
		}
		cells += int64(len(flat))
	}
	return float64(encNS) / float64(cells), float64(decNS) / float64(cells), nil
}
