package core

import (
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// all3Masks enumerates the 127 non-empty 3-D contributing sets.
func all3Masks() []Dep3Mask {
	var out []Dep3Mask
	for m := Dep3Mask(1); m <= dep3All; m++ {
		if m.Valid() {
			out = append(out, m)
		}
	}
	return out
}

// testProblem3 mixes every contributing predecessor with a positional term.
func testProblem3(m Dep3Mask, nx, ny, nz int) *Problem3[int64] {
	return &Problem3[int64]{
		Name: "test3-" + m.String(),
		NX:   nx, NY: ny, NZ: nz,
		Deps: m,
		F: func(i, j, k int, nb Neighbors3[int64]) int64 {
			v := int64(i*29+j*17+k*11) % 23
			if m.Has(Dep3X) {
				v += 2*nb.X + 1
			}
			if m.Has(Dep3Y) {
				v += 3 * nb.Y
			}
			if m.Has(Dep3Z) {
				v += nb.Z ^ 3
			}
			if m.Has(Dep3XY) {
				v += nb.XY % 97
			}
			if m.Has(Dep3XZ) {
				v += max(nb.XZ, v)
			}
			if m.Has(Dep3YZ) {
				v += nb.YZ / 2
			}
			if m.Has(Dep3XYZ) {
				v += nb.XYZ + 5
			}
			return v % 1_000_003
		},
		Boundary: func(i, j, k int) int64 { return int64(i + 2*j + 3*k) },
	}
}

func TestDep3MaskBasics(t *testing.T) {
	if len(all3Masks()) != 127 {
		t.Fatalf("3-D masks = %d, want 127 (2^7 - 1)", len(all3Masks()))
	}
	m := Dep3X | Dep3XYZ
	if m.String() != "{X,XYZ}" {
		t.Errorf("String = %q", m.String())
	}
	if !m.Valid() || Dep3Mask(0).Valid() || Dep3Mask(0x80).Valid() {
		t.Error("Valid wrong")
	}
}

func TestSolve3TinyByHand(t *testing.T) {
	// f = X + Y + Z + 1 with zero boundary counts weighted paths:
	// cell (1,1,1) = sum over the three axis predecessors.
	p := &Problem3[int64]{
		NX: 2, NY: 2, NZ: 2, Deps: Dep3X | Dep3Y | Dep3Z,
		F: func(i, j, k int, nb Neighbors3[int64]) int64 {
			return nb.X + nb.Y + nb.Z + 1
		},
	}
	g, err := Solve3(p)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0,0)=1; (1,0,0)=(0,1,0)=(0,0,1)=2; (1,1,0)=(1,0,1)=(0,1,1)=5;
	// (1,1,1)=5+5+5+1=16.
	if got := g.At(1, 1, 1); got != 16 {
		t.Errorf("corner = %d, want 16", got)
	}
}

func TestSolve3Validates(t *testing.T) {
	if _, err := Solve3(&Problem3[int64]{NX: 0, NY: 1, NZ: 1, Deps: Dep3X}); err == nil {
		t.Error("bad dims should error")
	}
	if _, err := Solve3(&Problem3[int64]{NX: 1, NY: 1, NZ: 1, Deps: 0,
		F: func(int, int, int, Neighbors3[int64]) int64 { return 0 }}); err == nil {
		t.Error("empty mask should error")
	}
}

// Planes must respect every 3-D dependency: each predecessor of a plane-s
// cell lies on a strictly earlier plane.
func TestPlanesRespectAllDependencies(t *testing.T) {
	for bit, off := range dep3Offsets {
		s := off[0] + off[1] + off[2]
		if s >= 0 {
			t.Errorf("offset %s does not decrease the plane index", Dep3Mask(bit).String())
		}
	}
}

// TestSolveParallel3MatchesSequential runs every one of the 127 masks on
// ragged boxes, one of each degenerate axis plus a wide shallow one whose
// 300-column rows take several 128-column (256-cell) tiles, at 1, 2 and 4
// workers.
func TestSolveParallel3MatchesSequential(t *testing.T) {
	dims := [][3]int{{1, 300, 3}, {300, 1, 3}, {20, 300, 1}, {3, 300, 2}}
	for _, m := range all3Masks() {
		for _, d := range dims {
			p := testProblem3(m, d[0], d[1], d[2])
			want, err := Solve3(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := SolveParallel3(p, workers)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", m, d, workers, err)
				}
				if !table.Equal3(want, got) {
					t.Errorf("%s %v workers=%d: parallel differs from sequential", m, d, workers)
				}
			}
		}
	}
}

func TestSolveHetero3MatchesSequential(t *testing.T) {
	for _, m := range []Dep3Mask{Dep3X | Dep3Y | Dep3Z, dep3All, Dep3XYZ} {
		p := testProblem3(m, 9, 11, 8)
		want, err := Solve3(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, solver := range map[string]func(*Problem3[int64], Options) (*Result3[int64], error){
			"hetero": SolveHetero3[int64], "cpu": SolveCPUOnly3[int64], "gpu": SolveGPUOnly3[int64],
		} {
			res, err := solver(p, Options{TSwitch: 3, TShare: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", m, name, err)
			}
			if !table.Equal3(want, res.Grid) {
				t.Errorf("%s %s: values differ", m, name)
			}
			if res.Duration() <= 0 {
				t.Errorf("%s %s: non-positive duration", m, name)
			}
		}
	}
}

func TestSolveHetero3AutoParams(t *testing.T) {
	p := testProblem3(Dep3X|Dep3Y|Dep3Z, 20, 20, 20)
	want, _ := Solve3(p)
	res, err := SolveHetero3(p, Options{TSwitch: -1, TShare: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal3(want, res.Grid) {
		t.Error("auto-param hetero3 differs")
	}
}

func TestSolveHetero3CellAccounting(t *testing.T) {
	p := testProblem3(dep3All, 12, 13, 14)
	res, err := SolveHetero3(p, Options{TSwitch: 5, TShare: 4, SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Timeline.Summarize()
	if st.CPUCells+st.GPUCells != 12*13*14 {
		t.Errorf("devices computed %d cells, want %d", st.CPUCells+st.GPUCells, 12*13*14)
	}
	if res.Grid != nil {
		t.Error("SkipCompute should leave Grid nil")
	}
}

// Fuzz across masks, shapes and parameters.
func TestSolve3EquivalenceFuzz(t *testing.T) {
	masks := all3Masks()
	f := func(mi, a, b, c, tsw, tsh uint8) bool {
		m := masks[int(mi)%len(masks)]
		nx := int(a%8) + 1
		ny := int(b%8) + 1
		nz := int(c%8) + 1
		p := testProblem3(m, nx, ny, nz)
		want, err := Solve3(p)
		if err != nil {
			return false
		}
		par, err := SolveParallel3(p, 2)
		if err != nil || !table.Equal3(want, par) {
			return false
		}
		het, err := SolveHetero3(p, Options{TSwitch: int(tsw % 10), TShare: int(tsh % 10)})
		if err != nil {
			return false
		}
		return table.Equal3(want, het.Grid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Shape test: the 3-D anti-diagonal strategy inherits the 2-D result —
// hetero beats GPU-only (launch-bound narrow planes go to the CPU).
func TestSolveHetero3BeatsGPUOnly(t *testing.T) {
	p := testProblem3(Dep3X|Dep3Y|Dep3Z, 192, 192, 192)
	o := Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	het, err := SolveHetero3(p, o)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := SolveGPUOnly3(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if het.Duration() > gpu.Duration() {
		t.Errorf("hetero3 %v should not lose to gpu-only %v", het.Duration(), gpu.Duration())
	}
}

func TestSolveParallel3LargePlanesChunked(t *testing.T) {
	// A 40x40 grid of 40-cell k-columns takes many 1x7 tiles at the
	// default worker count, so real goroutine fan-out happens.
	p := testProblem3(Dep3X|Dep3Y|Dep3Z, 40, 40, 40)
	want, err := Solve3(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveParallel3(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal3(want, got) {
		t.Error("tiled parallel3 differs from sequential")
	}
}
