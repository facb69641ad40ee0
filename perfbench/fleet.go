package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

const (
	// fleetSide is the side of every fleet table.
	fleetSide = 1024
	// fleetNodes in-process nodes with fleetNodeWorkers scheduler worker
	// each: one core per node on the 2-vCPU host; a third node would
	// oversubscribe it.
	fleetNodes       = 2
	fleetNodeWorkers = 1
	// fleetInstances seeded instances per mask. Solves cycle through
	// them, so the oracle solves 3 * fleetInstances tables, not one per
	// fleet solve.
	fleetInstances = 4
)

// fleetMasks holds one mask per phase direction the coordinator plans:
// {W,N} runs left to right, {N,NE} right to left, {W,N,NE} as one
// full-width phase per band.
var fleetMasks = []lddp.DepMask{
	lddp.DepW | lddp.DepN,
	lddp.DepN | lddp.DepNE,
	lddp.DepW | lddp.DepN | lddp.DepNE,
}

// fleetSystem is the running fleet workload: two nodes, a binary
// client per node, and the coordinator over them.
type fleetSystem struct {
	reqs     [][]*api.SolveRequest // [mask][instance]
	nodes    []*node
	trs      []*http.Transport
	clients  []*client.Client
	single   *client.Client // node 0 with Cache-Control: no-store
	coord    *fleet.Coordinator
	handlers *handlerLog // traced runs only
	seq      atomic.Int64
}

func fleetRequest(m lddp.DepMask, seed int64) *api.SolveRequest {
	return &api.SolveRequest{
		Rows: fleetSide, Cols: fleetSide, Mask: m.String(),
		Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
	}
}

func startFleet(cfg config) (*fleetSystem, error) {
	s := &fleetSystem{}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xf1ee7))
	for _, m := range fleetMasks {
		var reqs []*api.SolveRequest
		for range fleetInstances {
			reqs = append(reqs, fleetRequest(m, rng.Int64()))
		}
		s.reqs = append(s.reqs, reqs)
	}
	if cfg.traced {
		s.handlers = newHandlerLog()
	}
	var err error
	for n := 0; n < fleetNodes && err == nil; n++ {
		var wrap func(http.Handler) http.Handler
		if cfg.traced {
			wrap = func(h http.Handler) http.Handler { return s.handlers.wrap(n, h) }
		}
		var nd *node
		if nd, err = startNode(server.Config{Workers: fleetNodeWorkers}, wrap); err != nil {
			break
		}
		s.nodes = append(s.nodes, nd)
		tr := newTransport()
		s.trs = append(s.trs, tr)
		var rt http.RoundTripper = tr
		if cfg.traced {
			rt = &tracingTransport{base: tr, node: n, seq: &s.seq}
		}
		var cl *client.Client
		if cl, err = client.New(nd.url, client.WithTransport(rt), client.WithCodec(client.CodecBinary)); err == nil {
			s.clients = append(s.clients, cl)
		}
		if err == nil && n == 0 {
			s.single, err = client.New(nd.url, client.WithTransport(rt), client.WithCodec(client.CodecBinary),
				client.WithCacheControl("no-store"))
		}
	}
	if err == nil {
		s.coord, err = fleet.New(fleet.Config{Nodes: s.clients})
	}
	// Warm-up: one fleet solve per mask, on instances the window never uses.
	for i := 0; err == nil && i < len(fleetMasks); i++ {
		_, err = s.coord.Solve(context.Background(), fleetRequest(fleetMasks[i], rng.Int64()))
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *fleetSystem) stop() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.nodes {
		n.stop()
	}
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
}

// fleetSolve is one fleet solve's outcome.
type fleetSolve struct {
	mask, inst int
	t0, t1     time.Time
	digest     string
	// cellsOK: the assembled table re-digests to the reported digest.
	cellsOK bool
	stats   fleet.Stats
	trace   *opTrace // traced solves only
	err     error
}

// Span lanes of a traced fleet run: one per layer, per node where the
// layer runs on both.
const (
	laneFleet       = 0
	laneNodeClient  = 1 // + node
	laneNodeHandler = laneNodeClient + fleetNodes
	laneSingle      = laneNodeHandler + fleetNodes
	laneInProcess   = laneSingle + 1
)

// referenceSolve is one traced-run solve of a fleet instance outside
// the fleet: on one node over the wire, or in process.
type referenceSolve struct {
	mask, inst int
	ms         float64
	digest     string
}

// runFleet runs closed-loop fleet solves in whole cycles over the three
// masks, so per-solve counts repeat exactly from run to run.
func runFleet(cfg config) (*report, error) {
	s, setup, err := repeatSetup(func() (*fleetSystem, error) { return startFleet(cfg) }, (*fleetSystem).stop)
	if err != nil {
		return nil, err
	}
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog("fleet", "node0 client", "node1 client", "node0 handler", "node1 handler", "single-node", "in-process")
	}
	ctx := context.Background()
	var solves []fleetSolve
	var singles, inprocs []referenceSolve
	halo0 := s.coord.MetricsSnapshot()
	before := readAllocs()
	start := time.Now()
	var lastCycle time.Duration
	cycles := 0
	for cycles == 0 || time.Since(start)+lastCycle <= cfg.window {
		cycleStart := time.Now()
		// A traced run alternates untraced and traced cycles, each traced
		// cycle on the instances of the untraced one before it.
		traced := cfg.traced && cycles%2 == 1
		inst := cycles % fleetInstances
		if cfg.traced {
			inst = (cycles / 2) % fleetInstances
		}
		for m := range fleetMasks {
			fs := fleetSolve{mask: m, inst: inst}
			sctx := ctx
			if traced {
				fs.trace = &opTrace{}
				sctx = withOpTrace(ctx, fs.trace)
			}
			fs.t0 = time.Now()
			res, err := s.coord.Solve(sctx, s.reqs[m][inst])
			fs.t1 = time.Now()
			fs.err = err
			if err == nil {
				fs.digest = res.Digest
				fs.cellsOK = fmt.Sprintf("%016x", wire.CellsDigest(res.Rows, res.Cols, res.Cells)) == res.Digest
				fs.stats = res.Stats
			}
			solves = append(solves, fs)
		}
		if traced {
			single, inproc, err := s.referenceSolves(ctx, spans, (cycles/2)%len(fleetMasks), inst)
			if err != nil {
				s.stop()
				return nil, err
			}
			singles, inprocs = append(singles, single), append(inprocs, inproc)
		}
		cycles++
		lastCycle = time.Since(cycleStart)
	}
	window := time.Since(start)
	used := readAllocs().since(before)
	halo1 := s.coord.MetricsSnapshot()
	s.stop()

	rep := &report{correct: true, attempted: int64(len(solves) + len(singles) + len(inprocs))}
	rep.notef("fleet: %d solves (%d cycles over %d masks) of %dx%d on %d nodes x %d worker, window %.1fs",
		len(solves), cycles, len(fleetMasks), fleetSide, fleetSide, fleetNodes, fleetNodeWorkers, window.Seconds())
	if err := fleetCheck(rep, s, solves, singles, inprocs); err != nil {
		return nil, err
	}
	if cfg.traced {
		return rep, fleetTraced(rep, s, spans, solves, singles, inprocs, halo1.HaloBytes-halo0.HaloBytes, cfg.traceOut)
	}
	lat := make([]float64, 0, len(solves))
	byMask := make([][]float64, len(fleetMasks))
	for _, fs := range solves {
		if fs.err == nil {
			ms := fs.t1.Sub(fs.t0).Seconds() * 1e3
			lat = append(lat, ms)
			byMask[fs.mask] = append(byMask[fs.mask], ms)
		}
	}
	rep.detail("latency_p50_ms", "ms", median(lat), len(lat))
	if p90, err := tailPercentile(lat, 0.9); err == nil {
		rep.detail("latency_p90_ms", "ms", p90, len(lat))
	} else {
		rep.notef("latency_p90_ms: %v", err)
	}
	cells := float64(len(solves) * fleetSide * fleetSide)
	rep.add("setup_s", "s", setup, setupRepeats)
	rep.add("latency_ms", "ms", geoMeanOfMedians(byMask), len(lat))
	rep.add("goodput_per_s", "1/s", float64(len(lat))/window.Seconds(), len(solves))
	rep.add("alloc_bytes_per_cell", "B/cell", float64(used.bytes)/cells, 0)
	rep.add("allocs_per_op", "allocs/op", float64(used.objects)/float64(len(solves)), 0)
	return rep, nil
}

// referenceSolves solves one fleet instance on one node, and in process
// with the worker count of that node.
func (s *fleetSystem) referenceSolves(ctx context.Context, spans *spanLog, m, inst int) (single, inproc referenceSolve, err error) {
	req := s.reqs[m][inst]
	t0 := time.Now()
	resp, err := s.single.Solve(ctx, req)
	t1 := time.Now()
	if err != nil {
		return single, inproc, fmt.Errorf("single-node solve: %w", err)
	}
	single = referenceSolve{m, inst, t1.Sub(t0).Seconds() * 1e3, resp.Digest}
	spans.add(laneSingle, "single-node solve", resp.ID, fleetSide*fleetSide, t0, t1)
	p, err := server.BuildProblem(req)
	if err != nil {
		return single, inproc, err
	}
	t0 = time.Now()
	res, err := lddp.Solve(ctx, p, lddp.WithWorkers(fleetNodeWorkers))
	t1 = time.Now()
	if err != nil {
		return single, inproc, fmt.Errorf("in-process solve: %w", err)
	}
	inproc = referenceSolve{m, inst, t1.Sub(t0).Seconds() * 1e3, server.DigestGrid(res.Grid)}
	spans.add(laneInProcess, "lddp.Solve", resp.ID, fleetSide*fleetSide, t0, t1)
	return single, inproc, nil
}

// fleetCheck compares every assembled digest, and every single-node and
// in-process reference solve, with the sequential oracle of its instance.
func fleetCheck(rep *report, s *fleetSystem, solves []fleetSolve, singles, inprocs []referenceSolve) error {
	oracle := map[[2]int]string{}
	digestOf := func(m, inst int) (string, error) {
		key := [2]int{m, inst}
		if d, ok := oracle[key]; ok {
			return d, nil
		}
		p, err := server.BuildProblem(s.reqs[m][inst])
		if err != nil {
			return "", err
		}
		res, err := lddp.Solve(context.Background(), p, lddp.WithStrategy(lddp.Sequential))
		if err != nil {
			return "", fmt.Errorf("oracle: %w", err)
		}
		oracle[key] = server.DigestGrid(res.Grid)
		return oracle[key], nil
	}
	bad := 0
	mismatch := func(what string, m, inst int, got, want string) {
		rep.correct = false
		if bad++; bad <= 5 {
			rep.notef("MISMATCH %s %s instance %d: digest %s, oracle %s", what, fleetMasks[m], inst, got, want)
		}
	}
	for _, fs := range solves {
		if fs.err != nil {
			rep.failed++
			rep.notef("fleet solve %s instance %d failed: %v", fleetMasks[fs.mask], fs.inst, fs.err)
			continue
		}
		want, err := digestOf(fs.mask, fs.inst)
		if err != nil {
			return err
		}
		if fs.digest != want || !fs.cellsOK {
			mismatch("fleet", fs.mask, fs.inst, fs.digest, want)
		}
	}
	for _, refs := range []struct {
		what   string
		solves []referenceSolve
	}{{"single-node", singles}, {"in-process", inprocs}} {
		for _, r := range refs.solves {
			want, err := digestOf(r.mask, r.inst)
			if err != nil {
				return err
			}
			if r.digest != want {
				mismatch(refs.what, r.mask, r.inst, r.digest, want)
			}
		}
	}
	return nil
}

// fleetTraced derives the per-layer metrics of a traced fleet run.
func fleetTraced(rep *report, s *fleetSystem, spans *spanLog, solves []fleetSolve, singles, inprocs []referenceSolve, haloBytes int64, path string) error {
	if len(singles) < len(fleetMasks) {
		return fmt.Errorf("the window held %d traced cycles, need %d; lengthen it", len(singles), len(fleetMasks))
	}
	var blocks, relocations int
	var rtt, handler, haloWait, tracedLat []float64
	tracedByMask := make([][]float64, len(fleetMasks))
	untracedByMask := make([][]float64, len(fleetMasks))
	var busy, wall time.Duration
	for i, fs := range solves {
		blocks += fs.stats.Blocks
		relocations += fs.stats.Relocations
		if fs.err != nil {
			continue
		}
		ms := fs.t1.Sub(fs.t0).Seconds() * 1e3
		if fs.trace == nil {
			untracedByMask[fs.mask] = append(untracedByMask[fs.mask], ms)
			continue
		}
		tracedLat = append(tracedLat, ms)
		tracedByMask[fs.mask] = append(tracedByMask[fs.mask], ms)
		wall += fs.t1.Sub(fs.t0)
		spans.add(laneFleet, "fleet.Solve", int64(i), fleetSide*fleetSide, fs.t0, fs.t1)
		byNode := make([][]trip, fleetNodes)
		for _, t := range fs.trace.snapshot() {
			byNode[t.node] = append(byNode[t.node], t)
			rtt = append(rtt, t.end.Sub(t.start).Seconds()*1e3)
			spans.add(laneNodeClient+t.node, "block round trip", t.solveID, 0, t.start, t.end)
			if h, ok := s.handlers.get(t.seq); ok {
				handler = append(handler, h.end.Sub(h.start).Seconds()*1e3)
				busy += h.end.Sub(h.start)
				spans.add(laneNodeHandler+h.node, "band handler", t.solveID, 0, h.start, h.end)
			}
		}
		// A band's halo wait: from the solve's start to its first block,
		// and every gap between its consecutive block round trips.
		wait := time.Duration(0)
		for _, ts := range byNode {
			prev := fs.t0
			for _, t := range ts {
				wait += t.start.Sub(prev)
				prev = t.end
			}
		}
		haloWait = append(haloWait, wait.Seconds()*1e3)
	}
	n := float64(len(solves))
	rep.detail("fleet.blocks_per_solve", "blocks", float64(blocks)/n, len(solves))
	rep.detail("fleet.relocations", "count", float64(relocations), len(solves))
	rep.detail("wire.halo_bytes_per_solve", "B", float64(haloBytes)/n, len(solves))
	rep.detail("fleet.block_rtt_ms_p50", "ms", median(rtt), len(rtt))
	rep.detail("fleet.node_handler_ms_p50", "ms", median(handler), len(handler))
	rep.detail("fleet.halo_wait_ms_per_solve", "ms", mean(haloWait), len(haloWait))
	rep.detail("fleet.node_busy_ratio", "1", busy.Seconds()/(fleetNodes*wall.Seconds()), len(tracedLat))
	singleMS := make([]float64, 0, len(singles))
	inprocMS := make([]float64, 0, len(inprocs))
	singleByMask := make([][]float64, len(fleetMasks))
	for _, r := range singles {
		singleMS = append(singleMS, r.ms)
		singleByMask[r.mask] = append(singleByMask[r.mask], r.ms)
	}
	for _, r := range inprocs {
		inprocMS = append(inprocMS, r.ms)
	}
	rep.detail("fleet.single_node_ms_p50", "ms", median(singleMS), len(singleMS))
	rep.detail("fleet.in_process_ms_p50", "ms", median(inprocMS), len(inprocMS))
	// Scaling efficiency from per-mask medians: the three masks' solve
	// times differ, and a pooled median would jump between them.
	var single, fleetSum float64
	for m := range fleetMasks {
		single += median(singleByMask[m])
		fleetSum += median(untracedByMask[m])
	}
	rep.detail("fleet.scaling_efficiency", "1", single/(fleetNodes*fleetSum), len(singleMS))
	rep.add("solve_ms", "ms", median(handler), len(handler))
	rep.add("trace.overhead_ratio", "1", geoMeanOfMedians(tracedByMask)/geoMeanOfMedians(untracedByMask), len(tracedLat))
	return spans.write(path, "perfbench-fleet")
}
