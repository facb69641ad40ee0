package server_test

import (
	"testing"

	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
)

// TestCostBlockGeneratesOwnRows: a cost-kind band block generates only
// its own rows of the seeded cost grid, so a one-row block of a 1024²
// table allocates no more than the same block of the seeded mix kind plus
// its one row of costs (the generator's row and the int64 copy, each with
// its one-row outer slice), not the whole grid's 2050-odd allocations,
// and its recurrence reads the same costs as the whole table's.
func TestCostBlockGeneratesOwnRows(t *testing.T) {
	const n, row = 1024, 700
	req := &api.BandRequest{
		Rows: n, Cols: n, Row0: row, Row1: row + 1, Col0: 0, Col1: n, Mask: "W,N",
		Workload:  api.WorkloadSpec{Kind: api.KindMix, Seed: 3},
		HaloNorth: make([]int64, n),
	}
	allocs := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := server.BlockProblem(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	mix := allocs()
	req.Workload.Kind = api.KindCost
	if cost := allocs(); cost > mix+4 {
		t.Errorf("one-row cost block: %.0f allocations, want at most the mix block's %.0f + 4", cost, mix)
	}
	block, err := server.BlockProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := server.BuildProblem(&api.SolveRequest{Rows: n, Cols: n, Mask: "W,N", Workload: req.Workload})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		nb := lddp.Neighbors[int64]{W: int64(j), N: int64(n - j)}
		if got, want := block.F(0, j, nb), whole.F(row, j, nb); got != want {
			t.Fatalf("cell (%d,%d): block recurrence %d, whole table's %d", row, j, got, want)
		}
	}
}
