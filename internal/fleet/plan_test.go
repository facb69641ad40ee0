package fleet

import (
	"testing"

	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// TestPlanCuts pins the block cut mask by mask on a 1024² table in 2
// bands of 256-column phases: left to right for the seven NE-free masks,
// mirrored (phases right to left) for {NE} and {N,NE}, and one
// full-width phase for the six masks that read NE with W or NW. A change
// here changes which halos every band request carries.
func TestPlanCuts(t *testing.T) {
	c, err := New(Config{Nodes: []*client.Client{nil, nil}, PhaseCols: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range lddp.AllDepMasks() {
		_, b, err := c.planFor(&api.SolveRequest{Rows: 1024, Cols: 1024, Mask: m.String()})
		if err != nil {
			t.Fatal(err)
		}
		phases, want := 4, "tiles 512x256"
		switch {
		case m.Has(lddp.DepNE) && m&(lddp.DepW|lddp.DepNW) != 0:
			phases, want = 1, "tiles 512x1024"
		case m.Has(lddp.DepNE):
			want = "tiles 512x256 mirrored"
		}
		if b.Bands != 2 || b.Phases != phases || b.Executed != want {
			t.Errorf("mask %s: %d x %d blocks, %q; want 2 x %d, %q", m, b.Bands, b.Phases, b.Executed, phases, want)
		}
	}
}

// TestPlanBandHeights pins the band count: ⌈rows / Bands⌉-row bands, or
// ⌊rows / Bands⌋-row ones where the ceiling would leave a band's home
// node without a band.
func TestPlanBandHeights(t *testing.T) {
	for _, tc := range []struct{ rows, nodes, bands, want int }{
		{60, 3, 0, 3},  // 20-row bands
		{101, 3, 0, 3}, // 34, 34, 33
		{9, 4, 0, 5},   // 3-row bands would give 3; 2-row bands give 5
		{2, 3, 0, 2},   // clamped to the rows
		{10, 2, 4, 4},  // 3, 3, 3, 1
		{7, 2, 1, 1},
	} {
		c, err := New(Config{Nodes: make([]*client.Client, tc.nodes), Bands: tc.bands})
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := c.planFor(&api.SolveRequest{Rows: tc.rows, Cols: 5, Mask: "W,N"})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Bands; got != tc.want {
			t.Errorf("%d rows, %d nodes, Bands %d: %d bands, want %d", tc.rows, tc.nodes, tc.bands, got, tc.want)
		}
	}
}
