// Package fleet coordinates one DP solve across several lddpd nodes.
// The table is cut into horizontal row bands, one per node; each band
// is cut into column phases; and each (band, phase) block is shipped to
// the band's node as a POST /v1/band/solve request carrying the halo
// rows/columns its recurrence reads across block edges. Blocks of the
// same band run in phase order on one node while neighbouring bands
// pipeline one phase behind, the classic wavefront-of-blocks schedule.
// When a node dies mid-solve the failed block is relocated to the next
// node and the band stays there — the halos it needs are sliced from
// the coordinator's assembled table, not from node-local state, so any
// node can take over any block at any time. DESIGN.md §12 documents the
// protocol.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// Direction is a mask's block-phase processing order.
type Direction int

const (
	// LeftToRight: column phases run west to east. Valid whenever the
	// mask has no NE dependency — every cross-phase read then points
	// west or up, at blocks already done.
	LeftToRight Direction = iota
	// RightToLeft: column phases run east to west. Valid when the mask
	// reads NE but neither W nor NW — the mirror image.
	RightToLeft
	// SinglePhase: the mask reads both eastward (NE) and westward
	// (W/NW), so no column cut has all its cross-edge inputs on one
	// side; each band is one full-width block and the pipeline runs on
	// bands alone.
	SinglePhase
)

func (d Direction) String() string {
	switch d {
	case LeftToRight:
		return "ltr"
	case RightToLeft:
		return "rtl"
	default:
		return "single-phase"
	}
}

// DirectionFor returns the phase order a contributing set admits. The
// choice is forced, not heuristic: under a left-to-right cut a NE
// dependency at a phase's right edge reads a column the same band has
// not reached yet, and symmetrically for W/NW under right-to-left.
func DirectionFor(m lddp.DepMask) Direction {
	switch {
	case m.Has(lddp.DepNE) && m&(lddp.DepW|lddp.DepNW) != 0:
		return SinglePhase
	case m.Has(lddp.DepNE):
		return RightToLeft
	default:
		return LeftToRight
	}
}

// DefaultPhaseCols is the column width of one block phase when the
// config does not set one: wide enough that halo traffic (one row +
// two columns per block) stays a rounding error next to block cells.
const DefaultPhaseCols = 256

// Config configures a Coordinator.
type Config struct {
	// Nodes are the lddpd peers, one client per node. Band k starts on
	// node k mod len(Nodes) and moves only on failure.
	Nodes []*client.Client

	// Bands is the number of row bands (default len(Nodes), clamped to
	// the table's rows).
	Bands int

	// PhaseCols is the column width of one block phase (default
	// DefaultPhaseCols). Single-phase masks ignore it.
	PhaseCols int

	// MaxBlockAttempts bounds how many nodes one block is tried on
	// before the solve fails (counting the first; default
	// 2 * len(Nodes)).
	MaxBlockAttempts int

	// OnBlockDone, when set, runs after each block completes, before
	// its dependents are released — the fleet test suite's fault
	// injection point (e.g. kill a node after its first block).
	OnBlockDone func(band, phase, node int)

	// TraceDir, when non-empty, records a coordinator-side trace of
	// every fleet solve (one lane per band: halo-wait, round-trip and
	// halo-transfer spans), stitches it with the block traces the band
	// responses carry, and writes the multi-process timeline as
	// <TraceDir>/fleet-<fleetID>.json before Solve returns — the
	// cmd/lddptrace fleet input. Node lanes appear only for nodes that
	// themselves run with -tracedir; the coordinator lanes never depend
	// on node support.
	TraceDir string
}

// Stats counts one fleet solve's work.
type Stats struct {
	// Bands, Phases and Blocks describe the executed plan
	// (Blocks = Bands * Phases).
	Bands, Phases, Blocks int
	// Direction is the phase order the mask forced.
	Direction Direction
	// Relocations counts blocks moved to another node after a failure.
	Relocations int
	// NodeBlocks[n] counts blocks completed by Nodes[n].
	NodeBlocks []int
}

// Result is one assembled fleet solve.
type Result struct {
	// FleetID is the coordinator-assigned solve identifier, propagated
	// to every block as its trace context. TracePath is the stitched
	// multi-node trace file, on disk when Solve returns; it is empty when
	// the coordinator has no TraceDir or the write failed.
	FleetID   string
	TracePath string
	// ID is the fleet solve's process-wide sequence number, above 0: the
	// hex suffix of FleetID, and the id of POST /v1/fleet/solve's answer.
	ID int64

	Rows, Cols int
	// Cells is the full table, row-major.
	Cells []int64
	// Digest is the FNV-1a-64 hex digest of the assembled table — the
	// same fold a single node computes for the whole solve, so fleet
	// and single-node digests are directly comparable.
	Digest string
	// Mask is the resolved contributing set, and Pattern its wavefront
	// pattern (lddp.Classify).
	Mask, Pattern string
	// ElapsedMS is the coordinator wall time.
	ElapsedMS float64
	Stats     Stats
}

// Coordinator runs band-sharded solves over a fixed node set. Safe for
// concurrent use; each Solve builds its own plan and scratch state.
type Coordinator struct {
	cfg      Config
	counters counters
}

// counters are the coordinator's lifetime totals, exported into the
// metrics snapshot's Fleet section.
type counters struct {
	solves, blocks, relocations atomic.Int64
	haloValues, haloBytes       atomic.Int64
}

// New validates the config and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	if cfg.PhaseCols < 0 || cfg.Bands < 0 || cfg.MaxBlockAttempts < 0 {
		return nil, fmt.Errorf("fleet: negative config value")
	}
	if cfg.PhaseCols == 0 {
		cfg.PhaseCols = DefaultPhaseCols
	}
	if cfg.MaxBlockAttempts == 0 {
		cfg.MaxBlockAttempts = 2 * len(cfg.Nodes)
	}
	return &Coordinator{cfg: cfg}, nil
}

// Close releases the coordinator. It has nothing to wait for: a Solve
// writes its trace before it returns and leaves no goroutine behind.
// The coordinator stays usable afterwards; Close is safe to call again.
func (c *Coordinator) Close() {}

// MetricsSnapshot returns the coordinator's lifetime counters in the
// metrics snapshot's Fleet shape; cmd/lddpd wires it into the node's
// /v1/metrics through server.Config.ExtraMetrics.
func (c *Coordinator) MetricsSnapshot() lddp.FleetSnapshot {
	return lddp.FleetSnapshot{
		Solves:      c.counters.solves.Load(),
		Blocks:      c.counters.blocks.Load(),
		Relocations: c.counters.relocations.Load(),
		HaloValues:  c.counters.haloValues.Load(),
		HaloBytes:   c.counters.haloBytes.Load(),
	}
}

// fleetSeq disambiguates fleet IDs minted in the same nanosecond.
var fleetSeq atomic.Int64

// newFleetID mints a process-unique fleet solve identifier and returns
// it with its sequence number. The identifier is the join key of the
// whole observability layer: block requests carry it, node trace files
// and block traces are tagged with it, and the stitched trace file is
// named by it.
func newFleetID() (string, int64) {
	seq := fleetSeq.Add(1)
	return fmt.Sprintf("f%x-%x", time.Now().UnixNano(), seq), seq
}

// PlanError is a request the coordinator itself refused before
// contacting any node — bad table size, unresolvable mask, inline
// cells. Always client-error material (400), unlike node and transport
// failures.
type PlanError struct{ msg string }

func (e *PlanError) Error() string { return e.msg }

func planErrorf(format string, args ...any) error {
	return &PlanError{msg: fmt.Sprintf(format, args...)}
}

// span is a half-open interval of rows or columns.
type span struct{ lo, hi int }

// plan is one solve's static decomposition.
type plan struct {
	mask   lddp.DepMask
	dir    Direction
	bands  []span // row extents, index = band
	phases []span // column extents, index = processing order
}

func (c *Coordinator) planFor(req *api.SolveRequest) (*plan, error) {
	kind := req.Workload.Kind
	if kind == "" {
		kind = api.KindMix
	}
	mask, err := api.ResolveMask(kind, req.Mask)
	if err != nil {
		return nil, planErrorf("fleet: %v", err)
	}
	if req.Rows <= 0 || req.Cols <= 0 {
		return nil, planErrorf("fleet: table size %dx%d invalid", req.Rows, req.Cols)
	}
	if req.Workload.Cells != nil {
		return nil, planErrorf("fleet: inline workload cells cannot be sharded; use a seed-generated workload")
	}
	p := &plan{mask: mask, dir: DirectionFor(mask)}
	nb := c.cfg.Bands
	if nb == 0 {
		nb = len(c.cfg.Nodes)
	}
	if nb > req.Rows {
		nb = req.Rows
	}
	for k := 0; k < nb; k++ {
		p.bands = append(p.bands, span{k * req.Rows / nb, (k + 1) * req.Rows / nb})
	}
	switch p.dir {
	case SinglePhase:
		p.phases = []span{{0, req.Cols}}
	case LeftToRight:
		for lo := 0; lo < req.Cols; lo += c.cfg.PhaseCols {
			p.phases = append(p.phases, span{lo, min(lo+c.cfg.PhaseCols, req.Cols)})
		}
	case RightToLeft:
		for hi := req.Cols; hi > 0; hi -= c.cfg.PhaseCols {
			p.phases = append(p.phases, span{max(hi-c.cfg.PhaseCols, 0), hi})
		}
	}
	return p, nil
}

// Solve runs one band-sharded solve to completion. req has full-table
// SolveRequest semantics (kind, seed, mask, strategy, chunk); its
// DeadlineMS bounds the whole fleet solve coordinator-side, while each
// block travels without a deadline of its own — a block stuck on a dead
// node is handled by relocation, not by waiting out a timer.
func (c *Coordinator) Solve(ctx context.Context, req *api.SolveRequest) (*Result, error) {
	start := time.Now()
	p, err := c.planFor(req)
	if err != nil {
		return nil, err
	}
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	// done[k][p] closes when block (band k, processing phase p) is in
	// the table; a close happens-before the dependent bands' reads of
	// the block's cells, so halo slicing below needs no extra locking.
	done := make([][]chan struct{}, len(p.bands))
	for k := range done {
		done[k] = make([]chan struct{}, len(p.phases))
		for i := range done[k] {
			done[k][i] = make(chan struct{})
		}
	}

	t := &tally{stats: Stats{
		Bands: len(p.bands), Phases: len(p.phases),
		Blocks: len(p.bands) * len(p.phases), Direction: p.dir,
		NodeBlocks: make([]int, len(c.cfg.Nodes)),
	}}

	// Every fleet solve gets an ID and propagates it in each block's
	// trace context — nodes running with -tracedir tag their trace files
	// with it and return the block's trace, whether or not the
	// coordinator itself records.
	fleetID, id := newFleetID()
	var rec *trace.Recorder
	if c.cfg.TraceDir != "" {
		t.nodes = make([]trace.NodeTrace, len(c.cfg.Nodes))
		for n, node := range c.cfg.Nodes {
			t.nodes[n].Node = node.Base()
		}
		// Coordinator lanes carry ~3 spans per block, so a small ring
		// suffices; lane k is written only by band k's goroutine,
		// preserving the recorder's single-owner contract.
		rec = trace.NewRecorder(4096)
		lanes := make([]string, len(p.bands))
		for k := range lanes {
			lanes[k] = fmt.Sprintf("band %d", k)
		}
		rec.SetFleetTag(fleetID, 0, 0)
		rec.BeginSolve(trace.Meta{
			Solver: "fleet", Rows: req.Rows, Cols: req.Cols,
			Fronts: len(p.phases), Workers: len(p.bands),
			Node: "coordinator", Lanes: lanes,
		})
	}

	tab := &assembly{ready: make(chan struct{})}
	var wg sync.WaitGroup
	for k := range p.bands {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var lane *trace.Lane
			if rec != nil {
				lane = rec.Lane(k)
			}
			node := k % len(c.cfg.Nodes) // home node; sticky after relocation
			for ph := range p.phases {
				if k > 0 {
					var t0 int64
					if lane != nil {
						t0 = lane.Clock()
					}
					select {
					case <-done[k-1][ph]:
					case <-ctx.Done():
						return
					}
					if lane != nil {
						lane.SpanLabel(trace.KindHandoff, trace.LabelHaloWait, ph, int64(k-1), 0, t0)
					}
				}
				var err error
				node, err = c.solveBlock(ctx, req, p, tab, k, ph, node, fleetID, lane, t)
				if err != nil {
					fail(fmt.Errorf("fleet: band %d phase %d: %w", k, ph, err))
					return
				}
				close(done[k][ph])
				if c.cfg.OnBlockDone != nil {
					c.cfg.OnBlockDone(k, ph, node)
				}
			}
		}(k)
	}
	// The table is allocated beside the first round trip: no block of
	// band 0's first phase reads a halo, so its request is already out
	// while make clears the table.
	tab.cells = make([]int64, req.Rows*req.Cols)
	close(tab.ready)
	// The digest folds band by band, in row-major order, as each band's
	// last block lands — the fold CellsDigest makes over the whole
	// table — so only the last band's fold follows the last block.
	h := wire.DigestWord(wire.DigestInit(), uint64(req.Rows)<<32|uint64(req.Cols))
	last := len(p.phases) - 1
	for k, b := range p.bands {
		if !landed(ctx, done[k][last]) {
			break // a failed solve: Cause(ctx) reports it below
		}
		h = wire.FoldCells(h, tab.cells[b.lo*req.Cols:b.hi*req.Cols])
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	c.counters.solves.Add(1)
	res := &Result{
		FleetID: fleetID, ID: id,
		Rows: req.Rows, Cols: req.Cols, Cells: tab.cells,
		Digest:    fmt.Sprintf("%016x", h),
		Mask:      p.mask.String(),
		Pattern:   lddp.Classify(p.mask).String(),
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		Stats:     t.stats,
	}
	if rec != nil {
		rec.EndSolve()
		res.TracePath = c.writeTrace(fleetID, rec, t.nodes)
	}
	return res, nil
}

// tally is what one solve's band goroutines record, under mu: the
// solve's stats and, on a traced coordinator, the block traces each
// node returned (nodes[n] is node n's; nil when untraced).
type tally struct {
	mu    sync.Mutex
	stats Stats
	nodes []trace.NodeTrace
}

// assembly is one solve's table. cells is set once, beside the first
// block's round trip; ready closes after it, and a block waits on ready
// only to slice a halo or to land its cells.
type assembly struct {
	cells []int64
	ready chan struct{}
}

// table waits for the table and returns it.
func (a *assembly) table() []int64 {
	<-a.ready
	return a.cells
}

// landed waits until block is done or ctx ends, and reports whether the
// block is done: a closed done channel wins over an ended context.
func landed(ctx context.Context, block <-chan struct{}) bool {
	select {
	case <-block:
		return true
	case <-ctx.Done():
		select {
		case <-block:
			return true
		default:
			return false
		}
	}
}

// writeTrace stitches a completed fleet solve's coordinator trace with
// the block traces its nodes returned, writes the multi-process timeline
// into the coordinator's TraceDir and returns its path. It is
// best-effort: a failed write returns "" and never fails the solve it
// describes. A node that returned no block trace (it runs without
// -tracedir, or completed no block) keeps its empty process lane, so
// PIDs stay aligned with node indices.
func (c *Coordinator) writeTrace(fleetID string, rec *trace.Recorder, nodes []trace.NodeTrace) string {
	path := filepath.Join(c.cfg.TraceDir, fmt.Sprintf("fleet-%s.json", fleetID))
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	err = trace.WriteFleetChrome(f, rec.Meta(), rec.Events(), nodes)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return ""
	}
	return path
}

// solveBlock ships one block to its band's node, relocating on failure,
// and lands the returned cells in the assembled table. It returns the
// node that completed the block (the band's node from here on). A
// failed attempt may leave unverified cells in the block's rectangle;
// nothing reads them before the block's done channel closes, and the
// next attempt overwrites them. When the coordinator records a trace,
// lane is band k's lane and gets one round-trip span per completed
// block plus a derived halo-transfer span (round trip minus
// node-reported compute), and the block trace the node returned joins
// t.nodes. A failed attempt returns no response, so its partial node
// trace is not stitched.
func (c *Coordinator) solveBlock(ctx context.Context, req *api.SolveRequest, p *plan, tab *assembly, k, ph, node int, fleetID string, lane *trace.Lane, t *tally) (int, error) {
	rows, cols := req.Rows, req.Cols
	b, col := p.bands[k], p.phases[ph]
	breq := &api.BandRequest{
		Rows: rows, Cols: cols,
		Row0: b.lo, Row1: b.hi, Col0: col.lo, Col1: col.hi,
		Mask: req.Mask, Strategy: req.Strategy,
		Workload: req.Workload,
		Trace:    &api.TraceContext{FleetID: fleetID, Band: k, Phase: ph},
	}
	h := api.HaloSpec(p.mask, rows, cols, b.lo, b.hi, col.lo, col.hi)
	var table []int64
	if h.NorthLen+h.WestLen+h.EastLen > 0 {
		table = tab.table()
	}
	if h.NorthLen > 0 {
		breq.NorthLo = h.NorthLo
		breq.HaloNorth = table[(b.lo-1)*cols+h.NorthLo : (b.lo-1)*cols+h.NorthLo+h.NorthLen]
	}
	if h.WestLen > 0 {
		breq.HaloWest = make([]int64, h.WestLen)
		for i := range breq.HaloWest {
			breq.HaloWest[i] = table[(b.lo+i)*cols+col.lo-1]
		}
	}
	if h.EastLen > 0 {
		breq.HaloEast = make([]int64, h.EastLen)
		for i := range breq.HaloEast {
			breq.HaloEast[i] = table[(b.lo+i)*cols+col.hi]
		}
	}
	haloValues := int64(h.NorthLen + h.WestLen + h.EastLen)
	if haloValues > 0 {
		c.counters.haloValues.Add(haloValues)
		c.counters.haloBytes.Add(haloValues * 8)
	}
	dst := func() ([]int64, int) { return tab.table()[b.lo*cols+col.lo:], cols }
	var last error
	for attempt := 0; attempt < c.cfg.MaxBlockAttempts; attempt++ {
		if attempt > 0 {
			node = (node + 1) % len(c.cfg.Nodes)
			c.counters.relocations.Add(1)
			t.mu.Lock()
			t.stats.Relocations++
			t.mu.Unlock()
		}
		var t0 int64
		if lane != nil {
			t0 = lane.Clock()
		}
		resp, err := c.cfg.Nodes[node].SolveBand(ctx, breq, dst)
		if err != nil {
			last = err
			if ctx.Err() != nil || !relocatable(err) {
				return node, last
			}
			continue
		}
		if lane != nil {
			rtt := lane.Clock() - t0
			blockCells := int64(b.hi-b.lo) * int64(col.hi-col.lo)
			lane.SpanAt(trace.KindPhase, trace.LabelRTT, ph, int64(node), blockCells, t0, rtt)
			// The halo-transfer span is the round trip minus the node's
			// own compute time: wire transfer plus coordination overhead,
			// attributed to the halo payload that crossed it.
			if over := rtt - int64(resp.ElapsedMS*1e6); over > 0 {
				lane.SpanAt(trace.KindXferH2D, trace.LabelHaloXfer, ph, haloValues, haloValues*8, t0, over)
			}
		}
		c.counters.blocks.Add(1)
		t.mu.Lock()
		t.stats.NodeBlocks[node]++
		if t.nodes != nil && resp.Trace != nil {
			t.nodes[node].Blocks = append(t.nodes[node].Blocks, *resp.Trace)
		}
		t.mu.Unlock()
		return node, nil
	}
	return node, fmt.Errorf("block failed on %d nodes: %w", c.cfg.MaxBlockAttempts, last)
}

// relocatable reports whether a SolveBand failure is worth retrying on
// another node: transport errors (the node is gone) and admission
// pushback that outlived the client's own retries are; a request the
// service called invalid, a deadline the caller set, and a wire-version
// mismatch would fail identically everywhere.
func relocatable(err error) bool {
	return !errors.Is(err, client.ErrInvalid) &&
		!errors.Is(err, client.ErrTimeout) &&
		!errors.Is(err, client.ErrWireVersion)
}
