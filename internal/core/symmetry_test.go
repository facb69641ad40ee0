package core

import (
	"testing"

	"repro/internal/table"
)

func TestTransposedProblemSolvesEquivalently(t *testing.T) {
	p := testProblem(DepW|DepNW, 7, 11) // Vertical pattern
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	tp, undo := Transposed(p)
	if tp.Rows != 11 || tp.Cols != 7 {
		t.Fatalf("transposed dims = %dx%d", tp.Rows, tp.Cols)
	}
	if tp.Deps != (DepN | DepNW) {
		t.Fatalf("transposed deps = %s, want {NW,N}", tp.Deps)
	}
	got, err := Solve(tp)
	if err != nil {
		t.Fatal(err)
	}
	back := undo(got)
	if !table.EqualComparable(want, back) {
		t.Error("transposed solve round trip differs")
	}
}

func TestMirroredProblemSolvesEquivalently(t *testing.T) {
	p := testProblem(DepNE, 6, 9) // mInverted-L pattern
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	mp, undo := MirroredColumns(p)
	if mp.Deps != DepNW {
		t.Fatalf("mirrored deps = %s, want {NW}", mp.Deps)
	}
	got, err := Solve(mp)
	if err != nil {
		t.Fatal(err)
	}
	back := undo(got)
	if !table.EqualComparable(want, back) {
		t.Error("mirrored solve round trip differs")
	}
}

func TestMirrorBoundaryMapping(t *testing.T) {
	// A boundary function asymmetric in j must be observed through the
	// mirror correctly: reading past the right edge of the mirrored problem
	// is reading past the left edge of the original.
	p := &Problem[int64]{
		Rows: 3, Cols: 4, Deps: DepNE,
		F:        func(i, j int, nb Neighbors[int64]) int64 { return nb.NE + 1 },
		Boundary: func(i, j int) int64 { return int64(100*i + j) },
	}
	want, _ := Solve(p)
	mp, undo := MirroredColumns(p)
	got, _ := Solve(mp)
	if !table.EqualComparable(want, undo(got)) {
		t.Error("mirrored boundary mapping wrong")
	}
}

func TestTransposeBoundaryMapping(t *testing.T) {
	p := &Problem[int64]{
		Rows: 3, Cols: 5, Deps: DepW,
		F:        func(i, j int, nb Neighbors[int64]) int64 { return 2*nb.W + int64(j) },
		Boundary: func(i, j int) int64 { return int64(10*i - j) },
	}
	want, _ := Solve(p)
	tp, undo := Transposed(p)
	got, _ := Solve(tp)
	if !table.EqualComparable(want, undo(got)) {
		t.Error("transposed boundary mapping wrong")
	}
}

func TestCanonicalizeIdentityForCanonicalPatterns(t *testing.T) {
	for _, m := range []DepMask{DepW | DepN, DepN, DepNW, DepW | DepNE} {
		p := testProblem(m, 5, 5)
		cp, _, reduction, undo := canonicalize(p)
		if reduction != ReduceNone {
			t.Errorf("%s: unexpected reduction %s", m, reduction)
		}
		if cp != p {
			t.Errorf("%s: canonicalize should return the problem unchanged", m)
		}
		g := table.NewGrid[int64](5, 5)
		if undo(g) != g {
			t.Errorf("%s: identity undo should return the same grid", m)
		}
	}
}
