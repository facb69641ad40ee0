// The scenario engine's run loop: dispatch every scheduled op at its
// offset through real clients against the booted cluster, classify
// each outcome against the op's legal outcome set, check result
// integrity against the in-process sequential oracle, and close the
// run with the cross-op invariants (Retry-After spacing on the wire,
// saturation evidence, relocation accounting, drain ordering, goroutine
// accounting).
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/promlint"
	"repro/internal/server"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/lddp/api"
	"repro/lddp/client"
)

// Config shapes one Run. Schedule, when set, is replayed verbatim;
// otherwise Generate builds one from the Gen knobs.
type Config struct {
	Gen      GenConfig
	Schedule *Schedule
	// TraceDir receives node and fleet trace files; empty selects a
	// temporary directory removed after the run.
	TraceDir string
	// Timeout bounds the whole run; expiry is itself an invariant
	// violation ("hang"). Zero selects 2 minutes.
	Timeout time.Duration
	// Verbose streams per-op lines to Out (default: silent).
	Verbose bool
	Out     io.Writer
}

// Report is one run's outcome: the schedule that ran (replay input),
// outcome class counts, and every invariant violation in detail.
type Report struct {
	Schedule   *Schedule
	Classes    map[string]int
	Violations []string
	// Relocations is the coordinator's cumulative relocation count.
	Relocations int64
	// Rejected429 counts recorded 429 solve attempts across the run.
	Rejected429 int
	Elapsed     time.Duration
}

// Err returns nil for a clean run, or one error naming every violation.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("sim: seed %d: %d invariant violations:\n  %s",
		r.Schedule.Seed, len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// Outcome classes. "ok" carries the digest obligations; every other
// class is legal only under the conditions classify documents.
const (
	classOK         = "ok"
	classOverloaded = "overloaded"
	classUnavail    = "unavailable"
	classTimeout    = "timeout"
	classCanceled   = "canceled"
	classTransport  = "transport"
	classSkipped    = "skipped"
	classAborted    = "aborted"
)

type opResult struct {
	op    Op
	class string
	resp  *api.SolveResponse
	fres  *fleet.Result
	err   error
	// startedNS is the dispatch time on the cluster clock — ordered
	// against kill completion for the relocation invariant.
	startedNS int64
	done      chan struct{}
}

type engine struct {
	s        *Schedule
	cfg      Config
	cluster  *cluster
	injector *injector
	// clients[node] holds the op-facing typed clients by codec.
	clients map[string][]*client.Client
	fleetCl []*client.Client
	coord   *fleet.Coordinator
	scrape  *http.Client

	results map[int]*opResult

	mu         sync.Mutex
	violations []string
	classes    map[string]int
	oracle     map[string]string

	// Planned structural facts (from the schedule, not runtime state):
	// classification must not depend on racy runtime ordering.
	planKilled  []bool
	planDrained []bool
	planArms    []int
	// hangAborted flags that the run blew its time budget and was
	// cancelled: the ensuing context.Canceled errors are fallout of the
	// already-reported hang, not fresh violations.
	hangAborted bool
}

const maxViolations = 100

func (e *engine) violate(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.violations) < maxViolations {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	}
}

func (e *engine) logf(format string, args ...any) {
	if e.cfg.Verbose && e.cfg.Out != nil {
		fmt.Fprintf(e.cfg.Out, "sim: "+format+"\n", args...)
	}
}

// Run executes one scenario and reports. The error return is for setup
// failures only (port exhaustion, bad schedule); invariant violations
// travel in the Report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	leak := testutil.StartLeakCheck()
	s := cfg.Schedule
	if s == nil {
		s = Generate(cfg.Gen)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	traceDir := cfg.TraceDir
	ownTrace := false
	if traceDir == "" {
		td, err := os.MkdirTemp("", "lddpsim-")
		if err != nil {
			return nil, err
		}
		traceDir, ownTrace = td, true
	}
	start := time.Now()

	e := &engine{
		s: s, cfg: cfg,
		clients:     make(map[string][]*client.Client),
		results:     make(map[int]*opResult, len(s.Ops)),
		classes:     make(map[string]int),
		oracle:      make(map[string]string),
		planKilled:  make([]bool, s.Nodes),
		planDrained: make([]bool, s.Nodes),
	}
	for _, op := range s.Ops {
		e.results[op.ID] = &opResult{op: op, done: make(chan struct{})}
		switch op.Kind {
		case OpKill:
			e.planKilled[op.Node] = true
		case OpDrain:
			e.planDrained[op.Node] = true
		case OpArm:
			e.planArms = append(e.planArms, op.Node)
		}
	}

	cl, err := bootCluster(s, traceDir)
	if err != nil {
		return nil, err
	}
	e.cluster = cl
	base := &http.Transport{}
	e.injector = newInjector(base)
	e.scrape = &http.Client{Transport: e.injector, Timeout: 5 * time.Second}
	opPolicy := client.RetryPolicy{
		MaxAttempts: s.MaxAttempts,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    60 * time.Millisecond,
	}
	// Fleet band clients keep a short budget: relocation, not client
	// backoff, is the fleet's recovery mechanism, and long per-block
	// retries against a killed node would stall every post-kill solve.
	fleetPolicy := client.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}
	teardownClients := func() {
		for _, cs := range e.clients {
			for _, c := range cs {
				c.Close()
			}
		}
		for _, c := range e.fleetCl {
			c.Close()
		}
		base.CloseIdleConnections()
	}
	fail := func(err error) (*Report, error) {
		teardownClients()
		cl.shutdown(nil)
		if ownTrace {
			os.RemoveAll(traceDir)
		}
		return nil, err
	}
	for i, n := range cl.nodes {
		e.injector.addNode(n.addr, i)
		for _, codec := range []client.Codec{client.CodecJSON, client.CodecBinary} {
			c, err := client.New(n.base(), client.WithCodec(codec),
				client.WithTransport(e.injector), client.WithRetry(opPolicy))
			if err != nil {
				return fail(err)
			}
			e.clients[n.base()] = append(e.clients[n.base()], c)
		}
		fc, err := client.New(n.base(), client.WithCodec(client.CodecBinary),
			client.WithTransport(e.injector), client.WithRetry(fleetPolicy))
		if err != nil {
			return fail(err)
		}
		e.fleetCl = append(e.fleetCl, fc)
	}
	fleetTraceDir := filepath.Join(traceDir, "fleet")
	if err := os.MkdirAll(fleetTraceDir, 0o755); err != nil {
		return fail(err)
	}
	coord, err := fleet.New(fleet.Config{
		Nodes: e.fleetCl, PhaseCols: s.PhaseCols, TraceDir: fleetTraceDir,
	})
	if err != nil {
		return fail(err)
	}
	e.coord = coord

	// Dispatch: every op sleeps out its schedule offset, then runs
	// under a concurrency cap generous enough to never serialize the
	// schedule but bounded against pathological replays.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, dispatchCap)
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, op := range s.Ops {
		op := op
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.results[op.ID]
			defer close(res.done)
			t := time.NewTimer(time.Duration(op.DelayUS)*time.Microsecond - time.Since(t0))
			defer t.Stop()
			select {
			case <-runCtx.Done():
				e.finish(res, classAborted, nil, nil, runCtx.Err())
				return
			case <-t.C:
			}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-runCtx.Done():
				e.finish(res, classAborted, nil, nil, runCtx.Err())
				return
			}
			res.startedNS = e.cluster.sinceStart()
			e.execute(runCtx, res)
		}()
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()
	select {
	case <-allDone:
	case <-time.After(timeout):
		e.violate("hang: ops still in flight after %s — run aborted", timeout)
		e.mu.Lock()
		e.hangAborted = true
		e.mu.Unlock()
		cancel()
		select {
		case <-allDone:
		case <-time.After(15 * time.Second):
			e.violate("hang: ops did not unwind after cancellation")
		}
	}
	// Teardown order matters: clients drop their keep-alive connections
	// first (a lingering client-held conn would stall the listener
	// drain), then cluster.shutdown releases the gates and drains every
	// live node with its readiness contract checked. The coordinator
	// holds nothing past its solves, which wrote their traces before
	// returning.
	coord.Close()
	teardownClients()
	cl.shutdown(e.violate)

	e.checkWire()
	relocs := coord.MetricsSnapshot().Relocations
	if !anyTrue(e.planKilled) && !anyTrue(e.planDrained) && relocs != 0 {
		// Without kills or drains a relocation can still be legitimate:
		// honest admission contention 429s a fleet block. But then the
		// wire log must hold the rejected band attempt — a relocation
		// with every recorded block exchange clean has no cause.
		rejected := false
		for _, a := range e.injector.snapshot() {
			if a.band && a.status != http.StatusOK {
				rejected = true
				break
			}
		}
		if !rejected {
			e.violate("relocations: %d with no kills, no drains and no failed block exchange on the wire", relocs)
		}
	}
	if err := leak.Err(2 * time.Second); err != nil {
		e.violate("%v", err)
	}
	if ownTrace {
		os.RemoveAll(traceDir)
	}

	rep := &Report{
		Schedule:    s,
		Classes:     e.classes,
		Violations:  e.violations,
		Relocations: relocs,
		Elapsed:     time.Since(start),
	}
	for _, a := range e.injector.snapshot() {
		if !a.band && a.status == http.StatusTooManyRequests {
			rep.Rejected429++
		}
	}
	return rep, nil
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// finish records an op's outcome class exactly once.
func (e *engine) finish(res *opResult, class string, resp *api.SolveResponse, fres *fleet.Result, err error) {
	e.mu.Lock()
	res.class, res.resp, res.fres, res.err = class, resp, fres, err
	e.classes[class]++
	e.mu.Unlock()
	e.logf("op %d %s -> %s (err=%v)", res.op.ID, res.op.Kind, class, err)
}

func (e *engine) execute(ctx context.Context, res *opResult) {
	op := res.op
	switch op.Kind {
	case OpSolve, OpReplay:
		e.runSolve(ctx, res)
	case OpFleet:
		e.runFleet(ctx, res)
	case OpMetrics:
		e.runMetrics(ctx, res)
	case OpProm:
		e.runProm(ctx, res)
	case OpTrace:
		e.runTrace(ctx, res)
	case OpKill:
		e.cluster.kill(op.Node)
		e.finish(res, classOK, nil, nil, nil)
	case OpDrain:
		e.cluster.drain(op.Node)
		// The contract under test: readiness flips while the listener
		// still answers.
		if st := probe(e.cluster.nodes[op.Node].base() + "/readyz"); st != http.StatusServiceUnavailable {
			e.violate("op %d: node %d readyz = %d right after BeginDrain, want 503", op.ID, op.Node, st)
		}
		e.finish(res, classOK, nil, nil, nil)
	case OpArm:
		e.cluster.nodes[op.Node].gate.arm(op.Holds, time.Duration(op.HoldUS)*time.Microsecond)
		e.finish(res, classOK, nil, nil, nil)
	default:
		e.violate("op %d: unknown kind %q", op.ID, op.Kind)
		e.finish(res, classSkipped, nil, nil, nil)
	}
}

func (e *engine) solveRequest(op Op) *api.SolveRequest {
	return &api.SolveRequest{
		Rows: op.Rows, Cols: op.Cols, Mask: op.Mask, Strategy: op.Strategy,
		Workload:    api.WorkloadSpec{Kind: op.Workload, Seed: op.Seed},
		DeadlineMS:  int64(op.DeadlineMS),
		ReturnCells: op.ReturnCells,
	}
}

func (e *engine) clientFor(op Op) *client.Client {
	cs := e.clients[e.cluster.nodes[op.Node].base()]
	if op.Codec == "binary" {
		return cs[1]
	}
	return cs[0]
}

func (e *engine) runSolve(ctx context.Context, res *opResult) {
	op := res.op
	if op.Kind == OpReplay {
		// A replay races its original only in dispatch; the exchange
		// waits, so a hit/miss assertion on the result cache is sound.
		select {
		case <-e.results[op.ReplayOf].done:
		case <-ctx.Done():
			e.finish(res, classAborted, nil, nil, ctx.Err())
			return
		}
	}
	e.injector.armFaults(op.ID, op.Faults)
	cctx := withOpID(ctx, op.ID)
	var cancelFn context.CancelFunc
	if op.CancelAfterUS > 0 {
		cctx, cancelFn = context.WithCancel(cctx)
		stop := time.AfterFunc(time.Duration(op.CancelAfterUS)*time.Microsecond, cancelFn)
		defer stop.Stop()
		defer cancelFn()
	}
	resp, err := e.clientFor(op).Solve(cctx, e.solveRequest(op))
	class := e.classify(res, err)
	if class == classOK {
		e.checkSolveResult(op, resp)
		if op.Kind == OpReplay {
			orig := e.results[op.ReplayOf]
			if orig.class == classOK && !resp.Cached {
				e.violate("op %d: replay of op %d missed the result cache", op.ID, op.ReplayOf)
			}
		}
	}
	e.finish(res, class, resp, nil, err)
}

func (e *engine) runFleet(ctx context.Context, res *opResult) {
	op := res.op
	fres, err := e.coord.Solve(withOpID(ctx, op.ID), e.solveRequest(op))
	class := e.classify(res, err)
	if class == classOK {
		want := e.oracleDigest(op)
		if want != "" && fres.Digest != want {
			e.violate("op %d: fleet digest %s, oracle %s (%s %dx%d mask %q seed %d)",
				op.ID, fres.Digest, want, op.Workload, op.Rows, op.Cols, op.Mask, op.Seed)
		}
		if want != "" && server.DigestCells(fres.Rows, fres.Cols, fres.Cells) != want {
			e.violate("op %d: fleet assembled cells do not match the oracle table", op.ID)
		}
		// A fleet solve dispatched after a node died has a band homed
		// on the corpse (default banding covers every node), so a clean
		// result without a single relocation means the failover path
		// was never taken.
		if first := e.cluster.firstKillAt(); first > 0 && res.startedNS > first &&
			op.Rows >= e.s.Nodes && fres.Stats.Relocations == 0 {
			e.violate("op %d: fleet solve after node death reported zero relocations", op.ID)
		}
	}
	e.finish(res, class, nil, fres, err)
}

func (e *engine) runMetrics(ctx context.Context, res *opResult) {
	op := res.op
	snap, err := e.clients[e.cluster.nodes[op.Node].base()][0].Metrics(ctx)
	class := e.classify(res, err)
	if class == classOK && snap == nil {
		e.violate("op %d: metrics scrape returned a nil snapshot", op.ID)
	}
	e.finish(res, class, nil, nil, err)
}

func (e *engine) runProm(ctx context.Context, res *opResult) {
	op := res.op
	url := e.cluster.nodes[op.Node].base() + "/v1/metrics?format=prometheus"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		e.finish(res, classSkipped, nil, nil, err)
		return
	}
	resp, err := e.scrape.Do(req)
	if err != nil {
		class := classTransport
		if !e.allowedTransport(op) {
			e.violate("op %d: prom scrape of healthy node %d failed in transport: %v", op.ID, op.Node, err)
		}
		e.finish(res, class, nil, nil, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.violate("op %d: prom scrape status %d", op.ID, resp.StatusCode)
		e.finish(res, classTransport, nil, nil, fmt.Errorf("prom status %d", resp.StatusCode))
		return
	}
	lint, err := promlint.Lint(resp.Body)
	if err != nil {
		// The body broke off mid-read: a transport failure, excused
		// exactly as one from Do is — a planned kill explains both.
		if !e.allowedTransport(op) {
			e.violate("op %d: prom exposition unreadable: %v", op.ID, err)
		}
		e.finish(res, classTransport, nil, nil, err)
		return
	}
	if lerr := lint.Err(); lerr != nil {
		e.violate("op %d: prom exposition fails lint: %v", op.ID, lerr)
	}
	e.finish(res, classOK, nil, nil, nil)
}

// runTrace checks the stitched trace of an earlier fleet op once that op
// has finished: the file is on disk, parses as a fleet document, and
// has a non-empty process for every node that completed a block, since
// every sim node traces and returns its block traces in its band
// responses. It contacts no node.
func (e *engine) runTrace(ctx context.Context, res *opResult) {
	op := res.op
	select {
	case <-e.results[op.ReplayOf].done:
	case <-ctx.Done():
		e.finish(res, classAborted, nil, nil, ctx.Err())
		return
	}
	orig := e.results[op.ReplayOf]
	if orig.class != classOK || orig.fres == nil {
		e.finish(res, classSkipped, nil, nil, nil)
		return
	}
	if err := checkFleetTrace(orig.fres); err != nil {
		e.violate("op %d: stitched trace of fleet op %d: %v", op.ID, op.ReplayOf, err)
	}
	e.finish(res, classOK, nil, nil, nil)
}

// checkFleetTrace reads a fleet solve's stitched trace and requires a
// process with events for every node that completed one of its blocks.
func checkFleetTrace(fres *fleet.Result) error {
	f, err := os.Open(fres.TracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := trace.ReadFleetChrome(f)
	if err != nil {
		return err
	}
	events := map[int]int{}
	for _, p := range doc.Procs {
		events[p.PID] = len(p.Events)
	}
	for n, blocks := range fres.Stats.NodeBlocks {
		if blocks > 0 && events[n+1] == 0 {
			return fmt.Errorf("node %d completed %d blocks but its process has no events", n, blocks)
		}
	}
	return nil
}

// classify maps an op's error to its outcome class and flags classes
// the op's schedule position does not permit. The conditions are
// schedule-derived (planned kills/drains, declared faults), never racy
// runtime state, so a legal interleaving can never produce a spurious
// violation.
func (e *engine) classify(res *opResult, err error) string {
	op := res.op
	if err == nil {
		return classOK
	}
	var apiErr *client.APIError
	switch {
	case errors.Is(err, context.Canceled) && op.CancelAfterUS > 0:
		return classCanceled
	case errors.Is(err, client.ErrOverloaded):
		if errors.As(err, &apiErr) && apiErr.RetryAfter <= 0 {
			e.violate("op %d: 429 without a Retry-After hint", op.ID)
		}
		return classOverloaded
	case errors.Is(err, client.ErrUnavailable):
		if !e.allowedUnavailable(op) {
			e.violate("op %d (%s): unavailable with no kill or drain scheduled: %v", op.ID, op.Kind, err)
		}
		return classUnavail
	case errors.Is(err, client.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		if op.DeadlineMS == 0 && op.CancelAfterUS == 0 {
			e.violate("op %d (%s): timeout without a deadline or cancellation: %v", op.ID, op.Kind, err)
		}
		return classTimeout
	case errors.Is(err, client.ErrWireVersion):
		e.violate("op %d (%s): wire version rejection: %v", op.ID, op.Kind, err)
		return classTransport
	case errors.Is(err, client.ErrInvalid):
		e.violate("op %d (%s): request rejected as invalid: %v", op.ID, op.Kind, err)
		return classTransport
	case errors.Is(err, context.Canceled):
		if e.aborted() {
			return classAborted
		}
		e.violate("op %d (%s): canceled without a scheduled cancellation: %v", op.ID, op.Kind, err)
		return classCanceled
	default:
		if !e.allowedTransport(op) {
			e.violate("op %d (%s): untyped transport error with no fault or kill scheduled: %v", op.ID, op.Kind, err)
		}
		return classTransport
	}
}

func (e *engine) aborted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hangAborted
}

// allowedUnavailable: a 503 needs a scheduled drain or kill — of the
// op's target for single-node ops, of any node for fleet ops (bands
// visit everyone).
func (e *engine) allowedUnavailable(op Op) bool {
	if op.Kind == OpFleet {
		return anyTrue(e.planKilled) || anyTrue(e.planDrained)
	}
	return e.planKilled[op.Node] || e.planDrained[op.Node]
}

// allowedTransport: a raw transport failure needs a declared wire fault
// or a scheduled kill in the op's blast radius.
func (e *engine) allowedTransport(op Op) bool {
	if len(op.Faults) > 0 {
		return true
	}
	if op.Kind == OpFleet {
		return anyTrue(e.planKilled)
	}
	return e.planKilled[op.Node]
}

// oracleDigest computes (memoized) the sequential oracle's digest for
// an op's declarative workload. Empty on a workload the oracle cannot
// build — which is itself a violation, since the server accepted it.
func (e *engine) oracleDigest(op Op) string {
	key := fmt.Sprintf("%s|%d|%d|%d|%s", op.Workload, op.Seed, op.Rows, op.Cols, op.Mask)
	e.mu.Lock()
	if d, ok := e.oracle[key]; ok {
		e.mu.Unlock()
		return d
	}
	e.mu.Unlock()
	p, err := server.BuildProblem(e.solveRequest(op))
	if err != nil {
		e.violate("op %d: oracle cannot build accepted workload: %v", op.ID, err)
		return ""
	}
	g, err := core.Solve(p)
	if err != nil {
		e.violate("op %d: oracle solve failed: %v", op.ID, err)
		return ""
	}
	d := server.DigestGrid(g)
	e.mu.Lock()
	e.oracle[key] = d
	e.mu.Unlock()
	return d
}

// checkSolveResult holds every 200 to the oracle: digest equality
// always, cell-for-cell equality when the response carries the table.
func (e *engine) checkSolveResult(op Op, resp *api.SolveResponse) {
	if resp.Status != "done" {
		e.violate("op %d: 200 with status %q", op.ID, resp.Status)
	}
	want := e.oracleDigest(op)
	if want == "" {
		return
	}
	if resp.Digest != want {
		e.violate("op %d: digest %s, oracle %s (%s %dx%d mask %q seed %d cached=%v)",
			op.ID, resp.Digest, want, op.Workload, op.Rows, op.Cols, op.Mask, op.Seed, resp.Cached)
	}
	if op.ReturnCells {
		if len(resp.Cells) != op.Rows {
			e.violate("op %d: asked for cells, got %d rows of %d", op.ID, len(resp.Cells), op.Rows)
			return
		}
		flat := make([]int64, 0, op.Rows*op.Cols)
		for i, row := range resp.Cells {
			if len(row) != op.Cols {
				e.violate("op %d: returned cells row %d has %d values, want %d", op.ID, i, len(row), op.Cols)
				return
			}
			flat = append(flat, row...)
		}
		if server.DigestCells(resp.Rows, resp.Cols, flat) != want {
			e.violate("op %d: returned cells do not match the oracle table", op.ID)
		}
	}
}

// checkWire closes the loop on the recorded /v1/solve attempts: after
// any 429/503 the next attempt of the same op must sit at least the
// server's Retry-After hint away, and an armed run must actually have
// produced pushback on the armed node.
func (e *engine) checkWire() {
	log := e.injector.snapshot()
	byOp := make(map[int][]attempt)
	var opIDs []int
	for _, a := range log {
		if a.band {
			continue // parallel bands carry no per-op backoff ordering
		}
		if _, seen := byOp[a.op]; !seen {
			opIDs = append(opIDs, a.op)
		}
		byOp[a.op] = append(byOp[a.op], a)
	}
	sort.Ints(opIDs)
	retryAfter := time.Duration(e.s.RetryAfterMS) * time.Millisecond
	for _, id := range opIDs {
		atts := byOp[id]
		sort.Slice(atts, func(i, j int) bool { return atts[i].t.Before(atts[j].t) })
		for i := 1; i < len(atts); i++ {
			prev := atts[i-1]
			if prev.status != http.StatusTooManyRequests && prev.status != http.StatusServiceUnavailable {
				continue
			}
			if gap := atts[i].t.Sub(prev.t); gap < retryAfter {
				e.violate("op %d: retried %s after a %d, Retry-After is %s — backoff not honored",
					id, gap, prev.status, retryAfter)
			}
		}
	}
	for _, armNode := range e.planArms {
		n429 := 0
		for _, a := range log {
			if !a.band && a.node == armNode && a.status == http.StatusTooManyRequests {
				n429++
			}
		}
		if n429 == 0 {
			e.violate("arm: node %d saturated but no solve attempt was pushed back with 429", armNode)
		}
		if parks := e.cluster.nodes[armNode].gate.parks.Load(); parks == 0 {
			e.violate("arm: node %d gate armed but parked no admitted solves", armNode)
		}
	}
}
