package core

import (
	"testing"

	"repro/internal/hetsim"
	"repro/internal/table"
)

// testProblem builds an int64 problem for a mask whose recurrence mixes
// every contributing neighbour with a position-dependent term, so any
// mis-scheduled read changes the output.
func testProblem(m DepMask, rows, cols int) *Problem[int64] {
	return &Problem[int64]{
		Name: "test-" + m.String(),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			v := int64(i*31+j*17) % 13
			if m.Has(DepW) {
				v += 2*nb.W + 1
			}
			if m.Has(DepNW) {
				v += 3 * nb.NW
			}
			if m.Has(DepN) {
				v += max(nb.N, v)
			}
			if m.Has(DepNE) {
				v += nb.NE ^ 5
			}
			return v % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return int64(i + 2*j) },
		BytesPerCell: 8,
	}
}

func TestSolveTinyByHand(t *testing.T) {
	// f = N + W + 1 with zero boundary on a 2x2 grid:
	// (0,0): 0+0+1 = 1; (0,1): 0+1+1 = 2; (1,0): 1+0+1 = 2; (1,1): 2+2+1 = 5.
	p := &Problem[int64]{
		Rows: 2, Cols: 2, Deps: DepW | DepN,
		F: func(i, j int, nb Neighbors[int64]) int64 { return nb.N + nb.W + 1 },
	}
	g, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2}, {2, 5}}
	for i := range want {
		for j := range want[i] {
			if g.At(i, j) != want[i][j] {
				t.Errorf("cell (%d,%d) = %d, want %d", i, j, g.At(i, j), want[i][j])
			}
		}
	}
}

func TestSolveValidates(t *testing.T) {
	if _, err := Solve(&Problem[int64]{Rows: 0, Cols: 3, Deps: DepN}); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := Solve(&Problem[int64]{Rows: 3, Cols: 3, Deps: 0,
		F: func(int, int, Neighbors[int64]) int64 { return 0 }}); err == nil {
		t.Error("expected error for empty mask")
	}
	if _, err := Solve(&Problem[int64]{Rows: 3, Cols: 3, Deps: DepN}); err == nil {
		t.Error("expected error for nil F")
	}
}

// SolveParallel must agree with Solve for every contributing set (which
// exercises every canonical pattern and both symmetry reductions) and for
// shapes wider, taller, and degenerate.
func TestSolveParallelMatchesSequential(t *testing.T) {
	dims := [][2]int{{1, 1}, {1, 9}, {9, 1}, {8, 8}, {5, 13}, {13, 5}, {40, 40}}
	for _, m := range AllDepMasks() {
		for _, d := range dims {
			p := testProblem(m, d[0], d[1])
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveParallel(p, 4)
			if err != nil {
				t.Fatalf("%s %v: %v", m, d, err)
			}
			if !table.EqualComparable(want, got) {
				t.Errorf("%s %dx%d: SolveParallel differs from Solve", m, d[0], d[1])
			}
		}
	}
}

func TestSolveParallelSingleWorker(t *testing.T) {
	p := testProblem(DepW|DepNE, 20, 20)
	want, _ := Solve(p)
	got, err := SolveParallel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("single-worker parallel solve differs")
	}
}

func TestSolveParallelLargeFronts(t *testing.T) {
	// Wide enough that the table takes several skewed tiles and real
	// goroutine fan-out happens.
	p := testProblem(DepNW|DepN|DepNE, 40, 2000)
	want, _ := Solve(p)
	got, err := SolveParallel(p, 0) // GOMAXPROCS default
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("tiled parallel solve differs")
	}
}

// SolveHetero (and both simulated baselines) must agree cell-for-cell with
// the sequential reference for every contributing set.
func TestSolveHeteroMatchesSequentialAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		p := testProblem(m, 17, 23)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, solver := range map[string]func(*Problem[int64], Options) (*Result[int64], error){
			"hetero": SolveHetero[int64], "cpu": SolveCPUOnly[int64], "gpu": SolveGPUOnly[int64],
		} {
			res, err := solver(p, Options{TSwitch: -1, TShare: -1})
			if err != nil {
				t.Fatalf("%s %s: %v", m, name, err)
			}
			if res.Grid == nil {
				t.Fatalf("%s %s: nil grid", m, name)
			}
			if !table.EqualComparable(want, res.Grid) {
				t.Errorf("%s %s: values differ from sequential", m, name)
			}
			if res.Time <= 0 {
				t.Errorf("%s %s: non-positive simulated time %v", m, name, res.Time)
			}
		}
	}
}

func TestSolveHeteroExplicitParams(t *testing.T) {
	// Force a nontrivial split on every canonical pattern.
	for _, m := range []DepMask{DepW | DepN, DepNW | DepN | DepNE, DepNW, DepW | DepNE} {
		p := testProblem(m, 30, 30)
		want, _ := Solve(p)
		res, err := SolveHetero(p, Options{TSwitch: 5, TShare: 7})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !table.EqualComparable(want, res.Grid) {
			t.Errorf("%s: explicit-params hetero differs from sequential", m)
		}
	}
}

func TestSolveHeteroPreferInvertedL(t *testing.T) {
	p := testProblem(DepNW, 25, 25)
	want, _ := Solve(p)

	def, err := SolveHetero(p, Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if def.Executed != Horizontal {
		t.Errorf("default executed pattern = %s, want Horizontal (§V-B preference)", def.Executed)
	}
	forced, err := SolveHetero(p, Options{TSwitch: 4, TShare: 6, PreferInvertedL: true})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Executed != InvertedL {
		t.Errorf("forced executed pattern = %s, want Inverted-L", forced.Executed)
	}
	for _, r := range []*Result[int64]{def, forced} {
		if !table.EqualComparable(want, r.Grid) {
			t.Error("inverted-L routing changed cell values")
		}
	}
}

func TestSolveHeteroSymmetryMetadata(t *testing.T) {
	vert, err := SolveHetero(testProblem(DepW|DepNW, 12, 18), Options{TShare: 3, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if vert.Pattern != Vertical || vert.Executed != Horizontal || vert.Reduction != ReduceTranspose {
		t.Errorf("vertical metadata = %s/%s/%s", vert.Pattern, vert.Executed, vert.Reduction)
	}
	mirror, err := SolveHetero(testProblem(DepNE, 12, 18), Options{TShare: 3, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mirror.Pattern != MInvertedL || mirror.Reduction != ReduceMirror {
		t.Errorf("mInverted-L metadata = %s/%s", mirror.Pattern, mirror.Reduction)
	}
}

func TestSolveHeteroSkipCompute(t *testing.T) {
	p := testProblem(DepW|DepN, 50, 50)
	res, err := SolveHetero(p, Options{TSwitch: -1, TShare: -1, SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid != nil {
		t.Error("SkipCompute should leave Grid nil")
	}
	if res.Time <= 0 {
		t.Error("SkipCompute should still produce a timeline")
	}
	// Timing must be identical with and without computation.
	full, err := SolveHetero(p, Options{TSwitch: res.TSwitch, TShare: res.TShare})
	if err != nil {
		t.Fatal(err)
	}
	if full.Time != res.Time {
		t.Errorf("SkipCompute time %v != full time %v", res.Time, full.Time)
	}
}

func TestTransferCountsByPattern(t *testing.T) {
	// {N}-only horizontal needs zero boundary transfers (Table II).
	resN, err := SolveHetero(testProblem(DepN, 20, 40), Options{TShare: 10, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if n := resN.Timeline.TransferCount(); n > 1 { // at most result extraction
		t.Errorf("{N} horizontal made %d transfers, want <= 1", n)
	}

	// Case-1 {NW,N}: one boundary transfer per row except the last.
	res1, err := SolveHetero(testProblem(DepNW|DepN, 20, 40), Options{TShare: 10, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	h2d := 0
	for _, r := range res1.Timeline.Records {
		if r.Kind == hetsim.OpTransfer && r.Label == "h2d:boundary" {
			h2d++
		}
	}
	if h2d != 20 {
		t.Errorf("case-1 boundary transfers = %d, want 20 (one per row)", h2d)
	}

	// Case-2 {NW,N,NE}: both directions every row.
	res2, err := SolveHetero(testProblem(DepNW|DepN|DepNE, 20, 40), Options{TShare: 10, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	var up, down int
	for _, r := range res2.Timeline.Records {
		switch r.Label {
		case "h2d:boundary":
			up++
		case "d2h:boundary":
			down++
		}
	}
	if up != 20 || down != 20 {
		t.Errorf("case-2 transfers = %d up / %d down, want 20/20", up, down)
	}

	// CPU-only baseline never transfers.
	resCPU, err := SolveCPUOnly(testProblem(DepW|DepNE, 20, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resCPU.Timeline.TransferCount() != 0 {
		t.Error("CPU-only baseline should not transfer")
	}
}

func TestHeteroUsesBothDevices(t *testing.T) {
	p := testProblem(DepW|DepN, 300, 300)
	res, err := SolveHetero(p, Options{TSwitch: 50, TShare: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Timeline.Summarize()
	if st.CPUCells == 0 || st.GPUCells == 0 {
		t.Errorf("hetero run used cpu=%d gpu=%d cells; want both > 0", st.CPUCells, st.GPUCells)
	}
	if st.CPUCells+st.GPUCells != 300*300 {
		t.Errorf("devices computed %d cells, want %d", st.CPUCells+st.GPUCells, 300*300)
	}
}

func TestGPUOnlyCountsAllCells(t *testing.T) {
	p := testProblem(DepW|DepN, 40, 25)
	res, err := SolveGPUOnly(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Timeline.Summarize().GPUCells; got != 1000 {
		t.Errorf("GPU computed %d cells, want 1000", got)
	}
}

func TestSolveHeteroLowPlatform(t *testing.T) {
	p := testProblem(DepW|DepN, 60, 60)
	want, _ := Solve(p)
	res, err := SolveHetero(p, Options{Platform: hetsim.HeteroLow(), TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res.Grid) {
		t.Error("Hetero-Low run differs from sequential")
	}
}

func TestSolveHeteroCustomLayoutStillCorrect(t *testing.T) {
	p := testProblem(DepW|DepN, 30, 30)
	want, _ := Solve(p)
	res, err := SolveHetero(p, Options{TSwitch: 5, TShare: 5, Uncoalesced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res.Grid) {
		t.Error("row-major (uncoalesced) run differs from sequential")
	}
}
