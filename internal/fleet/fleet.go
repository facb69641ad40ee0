// Package fleet coordinates one DP solve across several lddpd nodes.
// The table is cut into horizontal row bands, by default one per node,
// and each band into column phases; each (band, phase) block is shipped
// to the band's node as a POST /v1/band/solve request carrying the halo
// rows/columns its recurrence reads across block edges. The blocks run
// as a DAG on the tile engine (core.Blocks), one engine worker per band:
// a block starts as soon as the blocks it reads are in the assembled
// table, the classic wavefront-of-blocks schedule. When a node dies
// mid-solve the failed block is relocated to the next node and the band
// stays there — the halos it needs are sliced from the coordinator's
// assembled table, not from node-local state, so any node can take over
// any block at any time. DESIGN.md §12 documents the protocol.
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

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

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
	// the table's rows): bands of ⌈rows / Bands⌉ rows, or of ⌊rows /
	// Bands⌋ where the ceiling leaves fewer bands (9 rows in 4 bands get
	// 5 bands of 2 rows, not 3 of 3), so every home node keeps a band.
	Bands int

	// PhaseCols is the column width of one block phase (default
	// DefaultPhaseCols). The six masks that read NE with W or NW run
	// each band as one full-width block and ignore it.
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
	// every fleet solve (one lane per engine worker: halo-wait,
	// round-trip and halo-transfer spans), stitches it with the block
	// traces the band responses carry, and writes the multi-process
	// timeline as <TraceDir>/fleet-<fleetID>.json before Solve returns —
	// the cmd/lddptrace fleet input. Node lanes appear only for nodes
	// that themselves run with -tracedir; the coordinator lanes never
	// depend on node support.
	TraceDir string
}

// Stats counts one fleet solve's work.
type Stats struct {
	// Bands, Phases and Blocks describe the executed plan
	// (Blocks = Bands * Phases).
	Bands, Phases, Blocks int
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

// planFor resolves a solve's mask and cuts its table into the block DAG
// the engine runs.
func (c *Coordinator) planFor(req *api.SolveRequest) (lddp.DepMask, *core.Blocks, error) {
	kind := req.Workload.Kind
	if kind == "" {
		kind = api.KindMix
	}
	mask, err := api.ResolveMask(kind, req.Mask)
	if err != nil {
		return 0, nil, planErrorf("fleet: %v", err)
	}
	if req.Rows <= 0 || req.Cols <= 0 {
		return 0, nil, planErrorf("fleet: table size %dx%d invalid", req.Rows, req.Cols)
	}
	if req.Workload.Cells != nil {
		return 0, nil, planErrorf("fleet: inline workload cells cannot be sharded; use a seed-generated workload")
	}
	nb := c.cfg.Bands
	if nb == 0 {
		nb = len(c.cfg.Nodes)
	}
	nb = min(nb, req.Rows)
	th := (req.Rows + nb - 1) / nb
	if (req.Rows+th-1)/th < nb {
		th = req.Rows / nb
	}
	blocks, err := core.NewBlocks(mask, req.Rows, req.Cols, th, c.cfg.PhaseCols)
	if err != nil {
		return 0, nil, planErrorf("fleet: %v", err)
	}
	return mask, blocks, nil
}

// Solve runs one band-sharded solve to completion. req has full-table
// SolveRequest semantics (kind, seed, mask, strategy, chunk); its
// DeadlineMS bounds the whole fleet solve coordinator-side, while each
// block travels without a deadline of its own — a block stuck on a dead
// node is handled by relocation, not by waiting out a timer.
func (c *Coordinator) Solve(ctx context.Context, req *api.SolveRequest) (*Result, error) {
	start := time.Now()
	mask, blocks, err := c.planFor(req)
	if err != nil {
		return nil, err
	}
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	bands, phases := blocks.Bands, blocks.Phases
	// Every fleet solve gets an ID and propagates it in each block's
	// trace context — nodes running with -tracedir tag their trace files
	// with it and return the block's trace, whether or not the
	// coordinator itself records.
	fleetID, id := newFleetID()
	s := &solve{
		c: c, req: req, mask: mask, phases: phases, fleetID: fleetID,
		ready:  make(chan struct{}),
		home:   make([]atomic.Int32, bands),
		landed: make([]chan [2]int, bands),
		stats: Stats{
			Bands: bands, Phases: phases, Blocks: bands * phases,
			NodeBlocks: make([]int, len(c.cfg.Nodes)),
		},
	}
	for k := range bands {
		s.home[k].Store(int32(k % len(c.cfg.Nodes)))
		s.landed[k] = make(chan [2]int, phases)
	}
	var rec *trace.Recorder
	if c.cfg.TraceDir != "" {
		s.nodes = make([]trace.NodeTrace, len(c.cfg.Nodes))
		for n, node := range c.cfg.Nodes {
			s.nodes[n].Node = node.Base()
		}
		// Coordinator lanes carry ~3 spans per block, so a small ring
		// suffices; lane w is written only by engine worker w, preserving
		// the recorder's single-owner contract.
		rec = trace.NewRecorder(4096)
		rec.SetFleetTag(fleetID, 0, 0)
		rec.BeginSolve(trace.Meta{
			Solver: "fleet", Executed: blocks.Executed, Node: "coordinator",
			Rows: req.Rows, Cols: req.Cols, Fronts: phases, Workers: bands,
		})
		s.lanes = make([]*trace.Lane, bands)
		s.waitFrom = make([]int64, bands)
		for w := range s.lanes {
			s.lanes[w] = rec.Lane(w)
		}
	}

	// The table is allocated beside the first round trip — no block of
	// the first band's first phase reads a halo, so its request is
	// already out while make clears the table — and the digest folds
	// band by band, in row-major order, as each band's last block lands
	// (the fold CellsDigest makes over the whole table), so only the last
	// band's fold follows the last block. Both run on a goroutine that
	// Solve joins, so nothing outlives a Solve that returns; a failed
	// solve stops it at the next band it would wait for.
	h := wire.DigestWord(wire.DigestInit(), uint64(req.Rows)<<32|uint64(req.Cols))
	failed, folded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(folded)
		s.cells = make([]int64, req.Rows*req.Cols)
		close(s.ready)
		for _, band := range s.landed {
			var rows [2]int
			for range phases {
				select {
				case rows = <-band:
				case <-failed:
					return
				}
			}
			h = wire.FoldCells(h, s.cells[rows[0]*req.Cols:rows[1]*req.Cols])
		}
	}()
	if err = blocks.Run(ctx, bands, s.block); err != nil {
		close(failed)
	}
	<-folded
	if err != nil {
		return nil, err
	}
	c.counters.solves.Add(1)
	res := &Result{
		FleetID: fleetID, ID: id,
		Rows: req.Rows, Cols: req.Cols, Cells: s.cells,
		Digest:    fmt.Sprintf("%016x", h),
		Mask:      mask.String(),
		Pattern:   lddp.Classify(mask).String(),
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		Stats:     s.stats,
	}
	if rec != nil {
		rec.EndSolve()
		res.TracePath = c.writeTrace(fleetID, rec, s.nodes)
	}
	return res, nil
}

// solve is one fleet solve in flight: what the engine workers running
// its blocks share.
type solve struct {
	c       *Coordinator
	req     *api.SolveRequest
	mask    lddp.DepMask
	phases  int
	fleetID string

	// cells is the assembled table, set beside the first block's round
	// trip; ready closes after it. A block waits on ready only to slice a
	// halo or to land its cells, and then sends its rows on landed[band]
	// to the digest fold.
	cells  []int64
	ready  chan struct{}
	landed []chan [2]int
	// home[k] is band k's node: k mod nodes, until a relocation moves it.
	home []atomic.Int32

	// On a traced coordinator, lanes[w] is engine worker w's lane and
	// waitFrom[w] the end of its last round trip (0, the trace's start,
	// before its first).
	lanes    []*trace.Lane
	waitFrom []int64

	// mu guards the stats and the block traces each node returned
	// (nodes[n] is node n's; nil when untraced).
	mu    sync.Mutex
	stats Stats
	nodes []trace.NodeTrace
}

// block is the engine's hook: engine worker b.Worker runs block
// (b.Band, b.Phase) on its band's node once every block it reads is in
// the table, and the engine releases its dependents when it returns.
func (s *solve) block(ctx context.Context, b core.Block) error {
	var lane *trace.Lane
	if s.lanes != nil {
		// The worker's wait for a ready block: halo wait and coordination.
		lane = s.lanes[b.Worker]
		lane.SpanAt(trace.KindHandoff, trace.LabelHaloWait, b.Band*s.phases+b.Phase, 0, 0, s.waitFrom[b.Worker], lane.Clock()-s.waitFrom[b.Worker])
	}
	node, err := s.solveBlock(ctx, b, int(s.home[b.Band].Load()), lane)
	s.home[b.Band].Store(int32(node))
	if lane != nil {
		s.waitFrom[b.Worker] = lane.Clock()
	}
	if err != nil {
		return fmt.Errorf("fleet: band %d phase %d: %w", b.Band, b.Phase, err)
	}
	s.landed[b.Band] <- [2]int{b.Row0, b.Row1}
	if s.c.cfg.OnBlockDone != nil {
		s.c.cfg.OnBlockDone(b.Band, b.Phase, node)
	}
	return nil
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
	meta := rec.Meta()
	meta.Dropped = rec.Dropped()
	err = trace.WriteFleetChrome(f, meta, rec.Events(), nodes)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return ""
	}
	return path
}

// solveBlock ships block b to node, relocating on failure, lands the
// returned cells in the assembled table and returns the node that
// completed the block. A failed attempt may leave unverified cells in
// the block's rectangle, which the next attempt overwrites; nothing reads
// them before the engine releases the block's dependents. A traced
// block's lane gets a round-trip span and a derived halo-transfer span
// (round trip minus node-reported compute), each naming the block as
// band * phases + phase; a failed attempt's partial node trace is not
// stitched, as it returns no response.
func (s *solve) solveBlock(ctx context.Context, b core.Block, node int, lane *trace.Lane) (int, error) {
	c := s.c
	rows, cols := s.req.Rows, s.req.Cols
	breq := &api.BandRequest{
		Rows: rows, Cols: cols,
		Row0: b.Row0, Row1: b.Row1, Col0: b.Col0, Col1: b.Col1,
		Mask: s.req.Mask, Strategy: s.req.Strategy,
		Workload: s.req.Workload,
		Trace:    &api.TraceContext{FleetID: s.fleetID, Band: b.Band, Phase: b.Phase},
	}
	h := api.HaloSpec(s.mask, rows, cols, b.Row0, b.Row1, b.Col0, b.Col1)
	var table []int64
	if h.NorthLen+h.WestLen+h.EastLen > 0 {
		<-s.ready
		table = s.cells
	}
	if h.NorthLen > 0 {
		breq.NorthLo = h.NorthLo
		breq.HaloNorth = table[(b.Row0-1)*cols+h.NorthLo : (b.Row0-1)*cols+h.NorthLo+h.NorthLen]
	}
	if h.WestLen > 0 {
		breq.HaloWest = make([]int64, h.WestLen)
		for i := range breq.HaloWest {
			breq.HaloWest[i] = table[(b.Row0+i)*cols+b.Col0-1]
		}
	}
	if h.EastLen > 0 {
		breq.HaloEast = make([]int64, h.EastLen)
		for i := range breq.HaloEast {
			breq.HaloEast[i] = table[(b.Row0+i)*cols+b.Col1]
		}
	}
	haloValues := int64(h.NorthLen + h.WestLen + h.EastLen)
	if haloValues > 0 {
		c.counters.haloValues.Add(haloValues)
		c.counters.haloBytes.Add(haloValues * 8)
	}
	dst := func() ([]int64, int) { <-s.ready; return s.cells[b.Row0*cols+b.Col0:], cols }
	id := b.Band*s.phases + b.Phase
	var last error
	for attempt := 0; attempt < c.cfg.MaxBlockAttempts; attempt++ {
		if attempt > 0 {
			node = (node + 1) % len(c.cfg.Nodes)
			c.counters.relocations.Add(1)
			s.mu.Lock()
			s.stats.Relocations++
			s.mu.Unlock()
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
			blockCells := int64(b.Row1-b.Row0) * int64(b.Col1-b.Col0)
			lane.SpanAt(trace.KindPhase, trace.LabelRTT, id, int64(node), blockCells, t0, rtt)
			// The halo-transfer span is the round trip minus the node's
			// own compute time: wire transfer plus coordination overhead,
			// attributed to the halo payload that crossed it.
			if over := rtt - int64(resp.ElapsedMS*1e6); over > 0 {
				lane.SpanAt(trace.KindXferH2D, trace.LabelHaloXfer, id, haloValues, haloValues*8, t0, over)
			}
		}
		c.counters.blocks.Add(1)
		s.mu.Lock()
		s.stats.NodeBlocks[node]++
		if s.nodes != nil && resp.Trace != nil {
			s.nodes[node].Blocks = append(s.nodes[node].Blocks, *resp.Trace)
		}
		s.mu.Unlock()
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
