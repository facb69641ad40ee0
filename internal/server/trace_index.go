package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"

	"repro/internal/trace"
)

// maxIndexedFleets bounds the trace index: beyond it the oldest fleet's
// block references are forgotten (FIFO). The files themselves stay in
// TraceDir — the bound is on the lookup structure, not the dumps.
const maxIndexedFleets = 64

// blockRef locates one fleet block's trace dump on disk.
type blockRef struct {
	solveID     int64
	band, phase int
	path        string
}

// traceIndex maps fleet solve IDs to the block trace files this node
// wrote for them, backing GET /v1/trace/{fleetID}. It exists because
// the coordinator knows fleet IDs while TraceDir file names carry
// node-local solve IDs; the index is the join between the two.
type traceIndex struct {
	mu     sync.Mutex
	fleets map[string][]blockRef
	order  []string
}

func newTraceIndex() *traceIndex {
	return &traceIndex{fleets: map[string][]blockRef{}}
}

// add records one block trace file under its fleet ID, evicting the
// oldest fleet past the bound.
func (t *traceIndex) add(fleetID string, ref blockRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.fleets[fleetID]; !ok {
		t.order = append(t.order, fleetID)
		if len(t.order) > maxIndexedFleets {
			delete(t.fleets, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.fleets[fleetID] = append(t.fleets[fleetID], ref)
}

// get returns the block references of one fleet solve, nil if unknown.
func (t *traceIndex) get(fleetID string) []blockRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]blockRef(nil), t.fleets[fleetID]...)
}

// size returns the number of fleets currently indexed.
func (t *traceIndex) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// handleTrace serves GET /v1/trace/{fleetID}: the node's block trace
// dumps for one fleet solve, read back from TraceDir and answered as a
// trace.NodeTrace JSON document. 404s carry the usual ErrorBody: an
// unknown fleet ID and tracing disabled are both "this node has no
// traces for that solve".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.WriteError(w, http.StatusMethodNotAllowed, "invalid", 0, "GET required")
		return
	}
	fleetID := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if fleetID == "" || strings.Contains(fleetID, "/") {
		s.WriteError(w, http.StatusNotFound, "not_found", 0,
			fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
		return
	}
	var refs []blockRef
	if s.traces != nil {
		refs = s.traces.get(fleetID)
	}
	if len(refs) == 0 {
		s.WriteError(w, http.StatusNotFound, "not_found", 0,
			fmt.Sprintf("no traces recorded for fleet solve %q (tracing requires -tracedir)", fleetID))
		return
	}
	nt := trace.NodeTrace{FleetID: fleetID}
	for _, ref := range refs {
		f, err := os.Open(ref.path)
		if err != nil {
			// The dump aged out of TraceDir (or the disk failed); the
			// remaining blocks are still worth answering.
			continue
		}
		meta, events, err := trace.ReadChrome(f)
		f.Close()
		if err != nil {
			s.logf("trace %s: reading %s: %v", fleetID, ref.path, err)
			continue
		}
		nt.Blocks = append(nt.Blocks, trace.BlockTrace{
			SolveID: ref.solveID, Band: ref.band, Phase: ref.phase,
			Meta: meta, Events: events,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&nt); err != nil {
		s.logf("writing trace %s: %v", fleetID, err)
	}
}
