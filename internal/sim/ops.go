// Package sim is the scenario engine: it boots N in-process lddpd
// stacks (real listeners, the real internal/server pipeline), drives a
// seeded randomized operation mix through the typed lddp/client and the
// fleet coordinator, injects faults at exact points (response delay,
// drop, truncation, node kill, drain, admission saturation), and checks
// hard invariants after every run — digest equality against the
// sequential oracle, typed errors only, Retry-After honored on the
// wire, readiness flipping before listeners close, lint-clean
// Prometheus exposition, relocation accounting, zero goroutine leaks.
//
// Every run is a pure function of its seed: Generate builds the whole
// operation schedule (targets, shapes, timing, faults) from one seed
// before anything executes, so a failing run is reproduced exactly by
// replaying its recorded Schedule (cmd/lddpsim -replay).
package sim

import (
	"fmt"
	"math/rand"

	"repro/lddp"
	"repro/lddp/api"
)

// Fixed per-run service parameters. They are recorded in the Schedule
// (replays must not depend on compiled-in values drifting) and kept
// deliberately tight: a 4-slot in-flight limiter and a 25ms Retry-After
// make admission pushback cheap to trigger and fast to verify.
const (
	DefaultWorkers      = 2
	DefaultMaxInflight  = 4
	DefaultRetryAfterMS = 25
	DefaultMaxAttempts  = 4
	DefaultPhaseCols    = 16

	// dispatchCap bounds the ops the engine runs at once.
	dispatchCap = 32
)

// OpKind enumerates the operations a schedule can carry.
type OpKind string

const (
	// OpSolve is one typed-client solve against a single node.
	OpSolve OpKind = "solve"
	// OpFleet is one band-sharded solve through the fleet coordinator.
	OpFleet OpKind = "fleet"
	// OpReplay re-sends an earlier solve op's exact request and expects
	// a result-cache hit when both runs completed.
	OpReplay OpKind = "replay"
	// OpMetrics scrapes the typed /v1/metrics snapshot.
	OpMetrics OpKind = "metrics"
	// OpProm scrapes the Prometheus text exposition and lints it.
	OpProm OpKind = "prom"
	// OpTrace checks an earlier fleet op's stitched trace file. Its Node
	// is unused but still drawn like a scrape's, which keeps the
	// generator's random stream, and so every seeded schedule and
	// recorded op log, unchanged.
	OpTrace OpKind = "trace"
	// OpKill closes a node's HTTP server mid-run (connections die).
	OpKill OpKind = "kill"
	// OpDrain flips a node into graceful drain and asserts /readyz
	// answers 503 while the listener still accepts.
	OpDrain OpKind = "drain"
	// OpArm arms a node's admission gate: the next Holds admitted
	// solves park inside the handler for HoldUS, pinning the in-flight
	// limiter full so concurrent solves collect deterministic 429s.
	OpArm OpKind = "arm"
)

// FaultKind enumerates injector actions on one solve attempt.
type FaultKind string

const (
	// FaultDelay holds the request before forwarding.
	FaultDelay FaultKind = "delay"
	// FaultDrop fails the attempt with a transport error, never
	// reaching the node.
	FaultDrop FaultKind = "drop"
	// FaultTruncate forwards the exchange but hands the client only
	// half of a 200 response body, forcing a decode error and a retry.
	FaultTruncate FaultKind = "truncate"
)

// Fault is one injected failure, pinned to a specific retry attempt of
// a specific op. Generate never faults an op's last possible attempt,
// so a fault-only op still has a clean path to success.
type Fault struct {
	Kind    FaultKind `json:"kind"`
	Attempt int       `json:"attempt"`
	DelayUS int       `json:"delay_us,omitempty"`
}

// Op is one scheduled operation. Fields are a union over the op kinds;
// unused fields stay zero and are omitted from the JSON op log.
type Op struct {
	ID   int    `json:"id"`
	Kind OpKind `json:"kind"`
	// Node is the target node index (solve/replay/metrics/prom/kill/
	// drain/arm; a trace op's is unused). Fleet ops address the whole
	// fleet.
	Node int `json:"node,omitempty"`
	// DelayUS schedules the op's dispatch relative to run start.
	DelayUS int `json:"delay_us,omitempty"`

	// Solve shape (solve/replay/fleet).
	Codec       string `json:"codec,omitempty"` // "json" | "binary"
	Rows        int    `json:"rows,omitempty"`
	Cols        int    `json:"cols,omitempty"`
	Mask        string `json:"mask,omitempty"`
	Workload    string `json:"workload,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	ReturnCells bool   `json:"return_cells,omitempty"`
	DeadlineMS  int    `json:"deadline_ms,omitempty"`
	// CancelAfterUS cancels the op's context this long after dispatch.
	CancelAfterUS int `json:"cancel_after_us,omitempty"`
	// Burst marks the solves of an arm group racing a pinned limiter.
	Burst bool `json:"burst,omitempty"`

	// ReplayOf names the earlier op a replay duplicates or the fleet op
	// a trace check inspects.
	ReplayOf int `json:"replay_of,omitempty"`

	// Arm gate shape.
	Holds  int `json:"holds,omitempty"`
	HoldUS int `json:"hold_us,omitempty"`

	Faults []Fault `json:"faults,omitempty"`
}

// Schedule is one complete, self-describing run: the seed and knobs
// that generated it plus every op in dispatch order. Replaying a
// Schedule re-executes the identical operation sequence.
type Schedule struct {
	Seed         int64 `json:"seed"`
	Nodes        int   `json:"nodes"`
	Workers      int   `json:"workers"`
	MaxInflight  int   `json:"max_inflight"`
	RetryAfterMS int   `json:"retry_after_ms"`
	MaxAttempts  int   `json:"max_attempts"`
	PhaseCols    int   `json:"phase_cols"`
	Ops          []Op  `json:"ops"`
}

// GenConfig shapes Generate's output. Zero fields select defaults.
type GenConfig struct {
	Seed   int64
	Nodes  int // node count (default 3)
	Ops    int // regular op count before structural inserts (default 60)
	MaxDim int // max rows/cols of one solve (default 24)
	Kills  int // nodes killed mid-run (clamped to keep one healthy)
	Drains int // nodes drained mid-run (clamped with Kills)
	// Arms is the admission-saturation burst count: 0 selects one when
	// the run is big enough (Ops >= 20). Negative disables saturation
	// entirely and sizes MaxInflight so no node ever answers 429.
	Arms int
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Nodes <= 0 {
		g.Nodes = 3
	}
	if g.Ops <= 0 {
		g.Ops = 60
	}
	if g.MaxDim <= 0 {
		g.MaxDim = 24
	}
	if g.MaxDim < 4 {
		g.MaxDim = 4
	}
	// At least one node must stay alive and admitting for the run's
	// invariants (teardown readyz checks, fleet relocation targets).
	if g.Kills+g.Drains > g.Nodes-1 {
		if g.Kills > g.Nodes-1 {
			g.Kills = g.Nodes - 1
		}
		g.Drains = g.Nodes - 1 - g.Kills
	}
	return g
}

// Generate builds a Schedule as a pure function of cfg: the same config
// always yields byte-identical output (no map iteration, no clock, one
// rand stream). Execution is concurrent and timing-dependent; the
// schedule is not.
func Generate(cfg GenConfig) *Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Schedule{
		Seed:         cfg.Seed,
		Nodes:        cfg.Nodes,
		Workers:      DefaultWorkers,
		MaxInflight:  DefaultMaxInflight,
		RetryAfterMS: DefaultRetryAfterMS,
		MaxAttempts:  DefaultMaxAttempts,
		PhaseCols:    DefaultPhaseCols,
	}
	if cfg.Arms < 0 {
		// With no saturation burst nothing should push back: size the
		// limiter to the most requests one node can hold at once, every
		// dispatched op with a fleet op's one block per band, so honest
		// contention never answers 429 and never forces a relocation.
		s.MaxInflight = dispatchCap * cfg.Nodes
	}
	g := &generator{cfg: cfg, rng: rng, s: s,
		killed:  make([]bool, cfg.Nodes),
		drained: make([]bool, cfg.Nodes),
	}
	g.run()
	return s
}

type generator struct {
	cfg GenConfig
	rng *rand.Rand
	s   *Schedule

	killed, drained []bool
	delayUS         int
	nextID          int

	// replayable collects earlier solve ops safe to replay (clean path,
	// no deadline/cancel, target still healthy when the replay fires);
	// fleetOps collects fleet op IDs for trace checks.
	replayable []Op
	fleetOps   []int
}

func (g *generator) id() int { g.nextID++; return g.nextID }

// healthyNode picks a node that is neither killed nor drained at this
// point of the schedule. At least one always exists (withDefaults).
func (g *generator) healthyNode() int {
	for {
		n := g.rng.Intn(g.cfg.Nodes)
		if !g.killed[n] && !g.drained[n] {
			return n
		}
	}
}

// liveNode picks a node whose listener is still up (drained is fine:
// the metrics and prom endpoints keep answering through a drain).
func (g *generator) liveNode() int {
	for {
		n := g.rng.Intn(g.cfg.Nodes)
		if !g.killed[n] {
			return n
		}
	}
}

// step advances the schedule clock by a small random stride so ops
// overlap without stampeding.
func (g *generator) step() int {
	g.delayUS += 200 + g.rng.Intn(2300)
	return g.delayUS
}

func (g *generator) run() {
	cfg := g.cfg
	// Structural ops (kills, drains, arms) land at fixed fractions of
	// the regular-op count: arms early enough that later traffic still
	// exercises recovered nodes, kills and drains through the middle.
	type structural struct {
		kind OpKind
		at   int
	}
	var structs []structural
	n := cfg.Arms
	if n == 0 && cfg.Ops >= 20 {
		n = 1
	}
	if n < 0 {
		n = 0
	}
	total := n + cfg.Kills + cfg.Drains
	var order []OpKind
	for i := 0; i < n; i++ {
		order = append(order, OpArm)
	}
	for i := 0; i < cfg.Kills; i++ {
		order = append(order, OpKill)
	}
	for i := 0; i < cfg.Drains; i++ {
		order = append(order, OpDrain)
	}
	for i, k := range order {
		structs = append(structs, structural{k, (i + 1) * cfg.Ops / (total + 1)})
	}

	masks := lddp.AllDepMasks()
	for i := 0; i < cfg.Ops; i++ {
		for len(structs) > 0 && structs[0].at == i {
			g.emitStructural(structs[0].kind)
			structs = structs[1:]
		}
		switch r := g.rng.Intn(100); {
		case r < 55:
			g.emitSolve(masks)
		case r < 67:
			g.emitFleet(masks)
		case r < 77:
			g.emitReplay()
		case r < 84:
			g.emitScrape(OpMetrics)
		case r < 93:
			g.emitScrape(OpProm)
		default:
			g.emitTrace()
		}
	}
	for _, st := range structs {
		g.emitStructural(st.kind)
	}
}

func (g *generator) emitStructural(kind OpKind) {
	switch kind {
	case OpArm:
		g.emitArmGroup()
	case OpKill:
		n := g.healthyNode()
		g.killed[n] = true
		g.s.Ops = append(g.s.Ops, Op{ID: g.id(), Kind: OpKill, Node: n, DelayUS: g.step()})
		g.pruneReplayable()
	case OpDrain:
		n := g.healthyNode()
		g.drained[n] = true
		g.s.Ops = append(g.s.Ops, Op{ID: g.id(), Kind: OpDrain, Node: n, DelayUS: g.step()})
		g.pruneReplayable()
	}
}

// pruneReplayable drops replay candidates whose target just lost its
// clean path (killed or draining nodes cannot produce a cache hit).
func (g *generator) pruneReplayable() {
	kept := g.replayable[:0]
	for _, op := range g.replayable {
		if !g.killed[op.Node] && !g.drained[op.Node] {
			kept = append(kept, op)
		}
	}
	g.replayable = kept
}

func (g *generator) solveShape(masks []lddp.DepMask) (kind, mask, strategy string, rows, cols int, seed int64) {
	kind = []string{api.KindMix, api.KindServe, api.KindCost, api.KindAlign}[g.rng.Intn(4)]
	mask = masks[g.rng.Intn(len(masks))].String()
	if _, err := api.ResolveMask(kind, mask); err != nil {
		mask = "" // align rejects everything but its fixed mask
	}
	// Every strategy name rides a deterministic subset of solves (seeded
	// rng, so recorded schedules replay identically); all of them run the
	// tile engine on the node's scheduler, under the same kills, drains,
	// cancels and wire faults.
	strategy = []string{"", "auto", "parallel", "async"}[g.rng.Intn(4)]
	rows = 2 + g.rng.Intn(g.cfg.MaxDim-1)
	cols = 2 + g.rng.Intn(g.cfg.MaxDim-1)
	seed = g.rng.Int63()
	return
}

func (g *generator) emitSolve(masks []lddp.DepMask) {
	kind, mask, strategy, rows, cols, seed := g.solveShape(masks)
	op := Op{
		ID: g.id(), Kind: OpSolve, Node: g.healthyNode(), DelayUS: g.step(),
		Codec: []string{"json", "binary"}[g.rng.Intn(2)],
		Rows:  rows, Cols: cols, Mask: mask, Workload: kind, Seed: seed,
		Strategy:    strategy,
		ReturnCells: rows*cols <= 2048 && g.rng.Intn(4) > 0,
	}
	clean := true
	switch r := g.rng.Intn(100); {
	case r < 5:
		// A 1ms budget on the largest shape the run allows: usually a
		// 408/timeout, occasionally a win — both are legal outcomes.
		op.DeadlineMS = 1
		op.Rows, op.Cols = g.cfg.MaxDim, g.cfg.MaxDim
		clean = false
	case r < 10:
		op.CancelAfterUS = 200 + g.rng.Intn(2000)
		clean = false
	case r < 30:
		// Wire faults on early attempts only: the last attempt always
		// runs clean, so the retry loop can recover.
		nf := 1 + g.rng.Intn(2)
		for f := 0; f < nf; f++ {
			fault := Fault{Attempt: g.rng.Intn(g.s.MaxAttempts - 1)}
			switch g.rng.Intn(3) {
			case 0:
				fault.Kind = FaultDelay
				fault.DelayUS = 500 + g.rng.Intn(5000)
			case 1:
				fault.Kind = FaultDrop
			default:
				fault.Kind = FaultTruncate
			}
			op.Faults = append(op.Faults, fault)
		}
		clean = false
	}
	g.s.Ops = append(g.s.Ops, op)
	if clean {
		g.replayable = append(g.replayable, op)
	}
}

func (g *generator) emitFleet(masks []lddp.DepMask) {
	kind, mask, strategy, _, cols, seed := g.solveShape(masks)
	// Rows at least 2x the node count so the default banding (one band
	// per node, dead ones included) gives every node real work — the
	// shape the relocation invariant needs.
	rows := 2*g.cfg.Nodes + g.rng.Intn(g.cfg.MaxDim)
	op := Op{
		ID: g.id(), Kind: OpFleet, DelayUS: g.step(),
		Rows: rows, Cols: cols, Mask: mask, Workload: kind, Seed: seed,
		Strategy: strategy,
	}
	g.s.Ops = append(g.s.Ops, op)
	g.fleetOps = append(g.fleetOps, op.ID)
}

func (g *generator) emitReplay() {
	if len(g.replayable) == 0 {
		g.emitScrape(OpMetrics)
		return
	}
	src := g.replayable[g.rng.Intn(len(g.replayable))]
	op := src // identical request — the cache key must match exactly
	op.ID = g.id()
	op.Kind = OpReplay
	op.ReplayOf = src.ID
	op.DelayUS = g.step()
	g.s.Ops = append(g.s.Ops, op)
}

func (g *generator) emitScrape(kind OpKind) {
	g.s.Ops = append(g.s.Ops, Op{ID: g.id(), Kind: kind, Node: g.liveNode(), DelayUS: g.step()})
}

func (g *generator) emitTrace() {
	if len(g.fleetOps) == 0 {
		g.emitScrape(OpProm)
		return
	}
	g.s.Ops = append(g.s.Ops, Op{
		ID: g.id(), Kind: OpTrace, Node: g.liveNode(), DelayUS: g.step(),
		ReplayOf: g.fleetOps[g.rng.Intn(len(g.fleetOps))],
	})
}

// emitArmGroup schedules the deterministic 429 scenario: arm the gate
// on one node, then throw MaxInflight fillers plus a burst at it. The
// gate parks the first MaxInflight admitted solves for HoldUS, so the
// overflow is guaranteed to meet a full limiter and collect 429s while
// the Retry-After clock is checked on the wire.
func (g *generator) emitArmGroup() {
	node := g.healthyNode()
	base := g.step()
	const holdUS = 120_000 // outlasts a full retry budget at 25ms Retry-After
	g.s.Ops = append(g.s.Ops, Op{
		ID: g.id(), Kind: OpArm, Node: node, DelayUS: base,
		Holds: g.s.MaxInflight, HoldUS: holdUS,
	})
	for i := 0; i < g.s.MaxInflight; i++ {
		g.s.Ops = append(g.s.Ops, Op{
			ID: g.id(), Kind: OpSolve, Node: node, DelayUS: base + 500 + i*300,
			Codec: "binary", Rows: 6, Cols: 6, Workload: api.KindMix,
			Seed: g.rng.Int63(), Burst: true,
		})
	}
	for i := 0; i < 3; i++ {
		g.s.Ops = append(g.s.Ops, Op{
			ID: g.id(), Kind: OpSolve, Node: node, DelayUS: base + 8_000 + i*200,
			Codec: "json", Rows: 6, Cols: 6, Workload: api.KindMix,
			Seed: g.rng.Int63(), Burst: true,
		})
	}
	// Resume regular scheduling after the hold window so unrelated ops
	// don't pile onto the pinned node.
	g.delayUS = base + holdUS
}

// Validate rejects schedules the engine cannot run (out-of-range nodes,
// dangling replay references) — the guard for hand-edited op logs.
func (s *Schedule) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("sim: schedule has %d nodes", s.Nodes)
	}
	ids := make(map[int]OpKind, len(s.Ops))
	for i, op := range s.Ops {
		if op.ID == 0 {
			return fmt.Errorf("sim: op %d has no id", i)
		}
		if _, dup := ids[op.ID]; dup {
			return fmt.Errorf("sim: duplicate op id %d", op.ID)
		}
		ids[op.ID] = op.Kind
		if op.Kind != OpFleet && (op.Node < 0 || op.Node >= s.Nodes) {
			return fmt.Errorf("sim: op %d targets node %d of %d", op.ID, op.Node, s.Nodes)
		}
	}
	for _, op := range s.Ops {
		if op.Kind == OpReplay {
			if k, ok := ids[op.ReplayOf]; !ok || k != OpSolve {
				return fmt.Errorf("sim: replay op %d references op %d (%s)", op.ID, op.ReplayOf, k)
			}
		}
		if op.Kind == OpTrace {
			if k, ok := ids[op.ReplayOf]; !ok || k != OpFleet {
				return fmt.Errorf("sim: trace op %d references op %d (%s)", op.ID, op.ReplayOf, k)
			}
		}
	}
	return nil
}
