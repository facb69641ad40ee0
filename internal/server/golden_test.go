package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/lddp/api"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire fixtures")

// goldenDocs are fixed instances of every wire type, with every field
// populated (zero values would vanish under omitempty and pin nothing).
// Their marshaled bytes are the wire contract: the fixtures were
// recorded when the types lived in lddp/client, so a diff here means
// the extraction into lddp/api (or any later edit) drifted the JSON
// wire format.
var goldenDocs = []struct {
	name string
	doc  any
}{
	{"solve_request", api.SolveRequest{
		Rows: 64, Cols: 48, Mask: "{W,N,NE}", Strategy: "parallel",
		Workload: api.WorkloadSpec{
			Kind: api.KindCost, Seed: 42,
			Cells: [][]int64{{1, 2}, {3, 4}},
		},
		DeadlineMS: 2500, ReturnCells: true,
	}},
	{"solve_response", api.SolveResponse{
		ID: 7, Status: "done", Cached: true, Rows: 64, Cols: 48,
		Mask: "{W,N,NE}", Pattern: "wavefront", Digest: "00deadbeef00cafe",
		Cells: [][]int64{{5, 6}}, ElapsedMS: 12.5,
	}},
	{"error_body", api.ErrorBody{
		Status: "rejected", Error: "admission queue full (depth 9)",
		ID: 3, RetryAfterMS: 1000,
	}},
	{"band_request", api.BandRequest{
		Rows: 64, Cols: 48, Row0: 16, Row1: 32, Col0: 8, Col1: 24,
		Mask: "{W,NW,N}", Strategy: "parallel",
		Workload:   api.WorkloadSpec{Kind: api.KindMix, Seed: 42},
		DeadlineMS: 2500,
		HaloNorth:  []int64{9, 8, 7}, NorthLo: 7,
		HaloWest: []int64{1, 2}, HaloEast: []int64{3, 4},
		Trace: &api.TraceContext{FleetID: "f1a2b3-4", Band: 1, Phase: 2},
	}},
	{"band_response", api.BandResponse{
		ID: 11, Status: "done", Row0: 16, Row1: 32, Col0: 8, Col1: 24,
		Mask: "{W,NW,N}", Cells: [][]int64{{5, 6}}, ElapsedMS: 3.25,
	}},
}

// TestGoldenWireFixtures pins the exact JSON bytes of every wire type
// against testdata/golden/*.json. Run with -update to re-record after
// an intentional wire change (which needs a DESIGN.md §10 note and a
// compatibility story, not just a flag).
func TestGoldenWireFixtures(t *testing.T) {
	for _, g := range goldenDocs {
		t.Run(g.name, func(t *testing.T) {
			got, err := json.MarshalIndent(g.doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", g.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire bytes drifted from %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}

// TestGoldenRoundTrip proves the fixtures decode back into the exact
// structs they were marshaled from — field renames that happen to keep
// the marshal shape (e.g. a swapped json tag pair) fail here.
func TestGoldenRoundTrip(t *testing.T) {
	for _, g := range goldenDocs {
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", g.name+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			// Decode into a fresh value of the same dynamic type, then
			// compare re-marshaled bytes — struct equality via reflection
			// would miss nothing extra and needs no new dependencies.
			fresh := map[string]any{}
			if err := json.Unmarshal(raw, &fresh); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(g.doc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			var a, b any
			if err := json.Unmarshal(want, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &b); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("fixture %s does not round-trip:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
