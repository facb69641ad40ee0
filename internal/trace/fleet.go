package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Fleet trace stitching: one fleet solve produces a coordinator trace
// (one lane per band, spans for halo waits and per-block round trips)
// plus one block trace per block, which the executing node returns in
// its band response. This file merges them into a single multi-process
// Chrome/Perfetto timeline — PID 0 is the coordinator, PID n+1 is node
// n — with every timestamp rebased onto the coordinator's wall clock via
// each recorder's EpochUnixNS, and analyzes the result into a fleet
// critical path. Clock-alignment caveat: the rebase trusts each host's
// wall clock, so cross-node offsets are only as good as the fleet's
// clock sync (NTP-level skew shifts whole node lanes, it does not
// reorder events within one).

// BlockTrace is one block's recorded trace as the node's band response
// carries it: the solve that executed block (Band, Phase) of a fleet
// solve.
type BlockTrace struct {
	// SolveID is the node-local scheduler solve ID of the block solve.
	SolveID int64 `json:"solve_id"`
	// Band and Phase are the block coordinates within the fleet solve.
	Band  int `json:"band"`
	Phase int `json:"phase"`
	// Meta is the block trace's own meta (carries EpochUnixNS for
	// wall-clock alignment and the fleet tags).
	Meta Meta `json:"meta"`
	// Events are the block solve's recorded events.
	Events []Event `json:"events"`
}

// Fit drops b's oldest events until its JSON encoding takes at most
// maxBytes, and counts them in Meta.Dropped beside the events the rings
// lost, so a trace never outgrows the response that carries it. Events
// are in timestamp order, so the newest stay, as in a full ring.
func (b *BlockTrace) Fit(maxBytes int) {
	for len(b.Events) > 0 {
		doc, err := json.Marshal(b)
		over := len(doc) - maxBytes
		if err != nil || over <= 0 {
			return
		}
		n := 0
		for ; over > 0 && n < len(b.Events); n++ {
			e, _ := json.Marshal(b.Events[n])
			over -= len(e) + 1 // the event and its separating comma
		}
		b.Events = b.Events[n:]
		b.Meta.Dropped += int64(n)
	}
}

// NodeTrace is every block trace one node returned for a fleet solve.
type NodeTrace struct {
	// Node names the node (its serving address).
	Node string
	// Blocks lists the node's block traces in completion order.
	Blocks []BlockTrace
}

// Coordinator-lane span labels. The coordinator records its fleet solve
// on one lane per band: a "halo-wait" KindHandoff span while the band
// waits for its north neighbour's phase, an "rtt" KindPhase span for the
// whole SolveBand round trip (A = node index, B = block cells), and a
// "halo" KindXferH2D span for the halo payload the block shipped
// (A = halo cells, B = halo bytes; its duration is the round trip minus
// the node-reported solve time — the wire + coordination overhead).
const (
	LabelHaloWait = "halo-wait"
	LabelRTT      = "rtt"
	LabelHaloXfer = "halo"
)

// processNameArgs is the args payload of a process_name metadata event.
type processNameArgs struct {
	Name string `json:"name"`
}

// FleetProc is one process lane group of a stitched fleet trace.
type FleetProc struct {
	// PID is the Chrome process ID: 0 for the coordinator, n+1 for
	// node n (fleet node-index order).
	PID int `json:"pid"`
	// Name is the process display name ("coordinator" or the node URL).
	Name string `json:"name"`
	// Events are the process's events, timestamps already rebased onto
	// the stitched document's common clock.
	Events []Event `json:"events"`
}

// FleetDoc is a parsed stitched fleet trace.
type FleetDoc struct {
	Meta  Meta        `json:"meta"`
	Procs []FleetProc `json:"procs"`
}

// WriteFleetChrome writes one stitched multi-process Chrome trace: the
// coordinator's events under PID 0 (one thread per band) and each node's
// block events under PID n+1 (one thread per scheduler worker), all
// timestamps shifted onto the coordinator's clock using the recorders'
// EpochUnixNS. nodes must be in fleet node-index order so PIDs match
// node indices; a node that returned no trace still claims its PID.
func WriteFleetChrome(w io.Writer, meta Meta, coordEvents []Event, nodes []NodeTrace) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", OtherData: &meta}
	emitProcess := func(pid int, name string, lanes map[int]string) error {
		args, err := json.Marshal(processNameArgs{Name: name})
		if err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, spanEvent{
			Name: "process_name", Ph: "M", PID: pid, Args: args,
		})
		tids := make([]int, 0, len(lanes))
		for tid := range lanes {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			args, err := json.Marshal(threadNameArgs{Name: lanes[tid]})
			if err != nil {
				return err
			}
			doc.TraceEvents = append(doc.TraceEvents, spanEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: args,
			})
		}
		return nil
	}
	emitEvents := func(pid int, shiftNS int64, events []Event) error {
		for _, e := range events {
			ts := e.TS + shiftNS
			args, err := json.Marshal(eventArgs{
				Kind: e.Kind.String(), Front: e.Front, A: e.A, B: e.B,
				TSNS: ts, DurNS: e.Dur, Label: e.Label,
			})
			if err != nil {
				return err
			}
			ce := spanEvent{
				Name: eventName(e),
				Cat:  e.Kind.String(),
				Ph:   "X",
				TS:   float64(ts) / 1e3,
				Dur:  float64(e.Dur) / 1e3,
				PID:  pid,
				TID:  int(e.Worker),
				Args: args,
			}
			if e.Dur == 0 {
				ce.Ph, ce.S = "i", "t"
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
		return nil
	}

	coordLanes := map[int]string{}
	for _, e := range coordEvents {
		coordLanes[int(e.Worker)] = laneName(meta, int(e.Worker))
	}
	if err := emitProcess(0, "coordinator", coordLanes); err != nil {
		return err
	}
	if err := emitEvents(0, 0, coordEvents); err != nil {
		return err
	}
	base := meta.EpochUnixNS
	for n, nt := range nodes {
		pid := n + 1
		name := nt.Node
		if name == "" {
			name = fmt.Sprintf("node %d", n)
		}
		lanes := map[int]string{}
		for _, b := range nt.Blocks {
			for _, e := range b.Events {
				if _, ok := lanes[int(e.Worker)]; !ok {
					lanes[int(e.Worker)] = laneName(b.Meta, int(e.Worker))
				}
			}
		}
		if err := emitProcess(pid, name, lanes); err != nil {
			return err
		}
		for _, b := range nt.Blocks {
			// Rebase the block's timestamps onto the coordinator clock.
			// A block with no epoch (foreign or hand-built trace) keeps
			// its own zero, which at least preserves internal ordering.
			var shift int64
			if b.Meta.EpochUnixNS != 0 && base != 0 {
				shift = b.Meta.EpochUnixNS - base
			}
			if err := emitEvents(pid, shift, b.Events); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

// ReadFleetChrome parses a stitched fleet document back into per-process
// event groups, retaining the PID lane structure WriteFleetChrome
// emitted (ReadChrome flattens PIDs away, which is right for single-node
// traces and wrong here).
func ReadFleetChrome(r io.Reader) (*FleetDoc, error) {
	var doc chromeTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parsing fleet trace: %w", err)
	}
	out := &FleetDoc{}
	if doc.OtherData != nil {
		out.Meta = *doc.OtherData
	}
	byPID := map[int]*FleetProc{}
	proc := func(pid int) *FleetProc {
		p := byPID[pid]
		if p == nil {
			p = &FleetProc{PID: pid}
			byPID[pid] = p
		}
		return p
	}
	for _, ce := range doc.TraceEvents {
		if ce.Ph == "M" {
			if ce.Name == "process_name" {
				var args processNameArgs
				if json.Unmarshal(ce.Args, &args) == nil {
					proc(ce.PID).Name = args.Name
				}
			}
			continue
		}
		if len(ce.Args) == 0 {
			continue
		}
		var args eventArgs
		if err := json.Unmarshal(ce.Args, &args); err != nil {
			continue
		}
		kind, ok := KindFromString(args.Kind)
		if !ok {
			continue
		}
		proc(ce.PID).Events = append(proc(ce.PID).Events, Event{
			TS: args.TSNS, Dur: args.DurNS, A: args.A, B: args.B,
			Front: args.Front, Worker: int32(ce.TID), Kind: kind, Label: args.Label,
		})
	}
	for _, p := range byPID {
		sortEvents(p.Events)
		out.Procs = append(out.Procs, *p)
	}
	sort.Slice(out.Procs, func(i, j int) bool { return out.Procs[i].PID < out.Procs[j].PID })
	return out, nil
}

// IsFleetDoc reports whether a trace meta belongs to a stitched fleet
// document (vs a single-process solve trace) — the lddptrace dispatch
// test.
func IsFleetDoc(meta Meta) bool { return meta.FleetID != "" }

// FleetNodeReport aggregates one process of a stitched trace.
type FleetNodeReport struct {
	PID  int    `json:"pid"`
	Name string `json:"name"`
	// BusyNS sums compute-occupancy spans (chunk/inline/row/phase);
	// Util is BusyNS over (lanes x fleet span).
	BusyNS int64   `json:"busy_ns"`
	Util   float64 `json:"util"`
	Lanes  int     `json:"lanes"`
	Events int     `json:"events"`
	// Blocks counts block round trips the coordinator attributed to this
	// node (0 for the coordinator process itself).
	Blocks int `json:"blocks"`
	// RTTNS sums the coordinator-observed round-trip time of those
	// blocks.
	RTTNS int64 `json:"rtt_ns"`
}

// FleetCriticalStep is one block on the fleet critical path.
type FleetCriticalStep struct {
	Band  int `json:"band"`
	Phase int `json:"phase"`
	// Node is the executing node's index.
	Node int `json:"node"`
	// RTTNS is the block's coordinator round trip; WaitNS the gap
	// between its dependencies finishing and the round trip starting
	// (halo wait + coordination).
	RTTNS  int64 `json:"rtt_ns"`
	WaitNS int64 `json:"wait_ns"`
}

// FleetCritical decomposes the fleet critical path: the chain of block
// round trips walked backwards from the last-finishing block through the
// block DAG ((band, phase) depends on (band-1, phase) and
// (band, phase-1)).
type FleetCritical struct {
	Steps []FleetCriticalStep `json:"steps"`
	// RTTNS and WaitNS split the path into block round trips and
	// dependency gaps.
	RTTNS  int64 `json:"rtt_ns"`
	WaitNS int64 `json:"wait_ns"`
	// DominantNode is the node index carrying the most path RTT (-1 when
	// the path is empty); DominantNodeNS its share.
	DominantNode   int   `json:"dominant_node"`
	DominantNodeNS int64 `json:"dominant_node_ns"`
	// DominantPhase is the phase with the most path time (RTT + wait).
	DominantPhase   int   `json:"dominant_phase"`
	DominantPhaseNS int64 `json:"dominant_phase_ns"`
	// DominantKind names the larger of the two path components:
	// "compute" (block round trips) or "halo-wait" (dependency gaps).
	DominantKind string `json:"dominant_kind"`
}

// FleetReport is the analyzed view of one stitched fleet trace.
type FleetReport struct {
	Meta   Meta  `json:"meta"`
	SpanNS int64 `json:"span_ns"`
	// Blocks, Bands and Phases describe the executed plan as observed on
	// the coordinator lanes.
	Blocks int `json:"blocks"`
	Bands  int `json:"bands"`
	Phases int `json:"phases"`
	// Nodes lists per-process aggregates, coordinator first.
	Nodes []FleetNodeReport `json:"nodes"`
	// HaloWaitNS sums the coordinator's halo-wait spans; HaloCells and
	// HaloBytes the halo payload volume; HaloXferNS the wire +
	// coordination overhead (round trip minus node compute).
	HaloWaitNS int64 `json:"halo_wait_ns"`
	HaloXferNS int64 `json:"halo_xfer_ns"`
	HaloCells  int64 `json:"halo_cells"`
	HaloBytes  int64 `json:"halo_bytes"`
	// RTTNS sums every block round trip.
	RTTNS    int64         `json:"rtt_ns"`
	Critical FleetCritical `json:"critical"`
}

// AnalyzeFleet computes the fleet report of a stitched trace: per-node
// busy/utilization, halo wait and transfer volumes, and the critical
// path through the block DAG, naming the dominant node and phase.
func AnalyzeFleet(doc *FleetDoc) *FleetReport {
	rep := &FleetReport{Meta: doc.Meta}
	rep.Critical.DominantNode = -1
	rep.Critical.DominantPhase = -1

	var lo, hi int64
	first := true
	var rtts []Event
	for _, p := range doc.Procs {
		nr := FleetNodeReport{PID: p.PID, Name: p.Name, Events: len(p.Events)}
		lanes := map[int32]bool{}
		for _, e := range p.Events {
			if first || e.TS < lo {
				lo, first = e.TS, false
			}
			if e.End() > hi {
				hi = e.End()
			}
			lanes[e.Worker] = true
			if busyKind(e.Kind) && !(p.PID == 0 && e.Kind == KindPhase) {
				// Coordinator KindPhase spans are round trips, not local
				// compute; counting them as busy would report the
				// coordinator as saturated.
				nr.BusyNS += e.Dur
			}
			if p.PID == 0 {
				switch e.Label {
				case LabelHaloWait:
					rep.HaloWaitNS += e.Dur
				case LabelHaloXfer:
					rep.HaloXferNS += e.Dur
					rep.HaloCells += e.A
					rep.HaloBytes += e.B
				case LabelRTT:
					rtts = append(rtts, e)
					rep.RTTNS += e.Dur
					if int(e.Worker)+1 > rep.Bands {
						rep.Bands = int(e.Worker) + 1
					}
					if int(e.Front)+1 > rep.Phases {
						rep.Phases = int(e.Front) + 1
					}
				}
			}
		}
		nr.Lanes = len(lanes)
		rep.Nodes = append(rep.Nodes, nr)
	}
	rep.Blocks = len(rtts)
	rep.SpanNS = hi - lo
	if rep.SpanNS <= 0 {
		rep.SpanNS = 1
	}
	for i := range rep.Nodes {
		if n := int64(rep.Nodes[i].Lanes) * rep.SpanNS; n > 0 {
			rep.Nodes[i].Util = float64(rep.Nodes[i].BusyNS) / float64(n)
		}
	}
	// Attribute block round trips to their executing node (A = node
	// index; node n is PID n+1).
	for _, e := range rtts {
		for i := range rep.Nodes {
			if rep.Nodes[i].PID == int(e.A)+1 {
				rep.Nodes[i].Blocks++
				rep.Nodes[i].RTTNS += e.Dur
			}
		}
	}
	rep.Critical = fleetCritical(rtts)
	return rep
}

// fleetCritical walks the block DAG backwards from the last-finishing
// round trip: each block's predecessors are (band-1, phase) — the north
// neighbour whose halo it waited for — and (band, phase-1) — the same
// band's previous phase, serialized on the band lane. The predecessor
// finishing last is the binding dependency; the gap between that finish
// and this round trip's start is the path's wait component.
func fleetCritical(rtts []Event) FleetCritical {
	crit := FleetCritical{DominantNode: -1, DominantPhase: -1}
	if len(rtts) == 0 {
		return crit
	}
	type key struct{ band, phase int32 }
	byBlock := make(map[key]Event, len(rtts))
	last := rtts[0]
	for _, e := range rtts {
		byBlock[key{e.Worker, e.Front}] = e
		if e.End() > last.End() {
			last = e
		}
	}
	nodeNS := map[int]int64{}
	phaseNS := map[int]int64{}
	cur := last
	for {
		step := FleetCriticalStep{
			Band: int(cur.Worker), Phase: int(cur.Front),
			Node: int(cur.A), RTTNS: cur.Dur,
		}
		var pred Event
		found := false
		for _, k := range []key{{cur.Worker - 1, cur.Front}, {cur.Worker, cur.Front - 1}} {
			if p, ok := byBlock[k]; ok && (!found || p.End() > pred.End()) {
				pred, found = p, true
			}
		}
		if found {
			if gap := cur.TS - pred.End(); gap > 0 {
				step.WaitNS = gap
			}
		}
		crit.Steps = append(crit.Steps, step)
		crit.RTTNS += step.RTTNS
		crit.WaitNS += step.WaitNS
		nodeNS[step.Node] += step.RTTNS
		phaseNS[step.Phase] += step.RTTNS + step.WaitNS
		if !found {
			break
		}
		cur = pred
	}
	// Walked tail-first; present the path in execution order.
	for i, j := 0, len(crit.Steps)-1; i < j; i, j = i+1, j-1 {
		crit.Steps[i], crit.Steps[j] = crit.Steps[j], crit.Steps[i]
	}
	for n, ns := range nodeNS {
		if ns > crit.DominantNodeNS || (ns == crit.DominantNodeNS && (crit.DominantNode == -1 || n < crit.DominantNode)) {
			crit.DominantNode, crit.DominantNodeNS = n, ns
		}
	}
	for p, ns := range phaseNS {
		if ns > crit.DominantPhaseNS || (ns == crit.DominantPhaseNS && (crit.DominantPhase == -1 || p < crit.DominantPhase)) {
			crit.DominantPhase, crit.DominantPhaseNS = p, ns
		}
	}
	crit.DominantKind = "compute"
	if crit.WaitNS > crit.RTTNS {
		crit.DominantKind = "halo-wait"
	}
	return crit
}
