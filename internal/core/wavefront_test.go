package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

var canonicalPatterns = []Pattern{AntiDiagonal, Horizontal, InvertedL, KnightMove}

func TestWavefrontsFrontCounts(t *testing.T) {
	cases := []struct {
		p          Pattern
		rows, cols int
		want       int
	}{
		{AntiDiagonal, 4, 6, 9}, // rows+cols-1
		{Horizontal, 4, 6, 4},   // rows
		{InvertedL, 4, 6, 4},    // min
		{InvertedL, 9, 3, 3},    // min
		{KnightMove, 4, 6, 12},  // 2(rows-1)+cols
		{AntiDiagonal, 1, 1, 1},
		{KnightMove, 1, 1, 1},
	}
	for _, c := range cases {
		w := NewWavefronts(c.p, c.rows, c.cols)
		if w.Fronts != c.want {
			t.Errorf("%s %dx%d fronts = %d, want %d", c.p, c.rows, c.cols, w.Fronts, c.want)
		}
	}
}

func TestWavefrontsPanicOnNonCanonical(t *testing.T) {
	for _, p := range []Pattern{Vertical, MInvertedL} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWavefronts(%s) should panic", p)
				}
			}()
			NewWavefronts(p, 3, 3)
		}()
	}
}

// Fronts must partition the table: every cell appears on exactly one front
// at the index Cell reports.
func TestWavefrontsPartition(t *testing.T) {
	for _, p := range canonicalPatterns {
		for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {5, 5}, {4, 9}, {9, 4}} {
			rows, cols := dims[0], dims[1]
			w := NewWavefronts(p, rows, cols)
			seen := make(map[[2]int]bool, rows*cols)
			total := 0
			for ft := 0; ft < w.Fronts; ft++ {
				size := w.Size(ft)
				for k := 0; k < size; k++ {
					i, j := w.Cell(ft, k)
					if i < 0 || i >= rows || j < 0 || j >= cols {
						t.Fatalf("%s %dx%d: Cell(%d,%d) = (%d,%d) out of range", p, rows, cols, ft, k, i, j)
					}
					if seen[[2]int{i, j}] {
						t.Fatalf("%s %dx%d: cell (%d,%d) appears twice", p, rows, cols, i, j)
					}
					seen[[2]int{i, j}] = true
					total++
				}
			}
			if total != rows*cols {
				t.Errorf("%s %dx%d: fronts cover %d cells, want %d", p, rows, cols, total, rows*cols)
			}
		}
	}
}

// The defining safety property: every contributing neighbour of a front-t
// cell lies on an earlier front. Checked for every canonical pattern
// against every legal mask of that pattern.
func TestWavefrontsRespectDependencies(t *testing.T) {
	// Masks are mapped through their symmetry reduction first, exactly as
	// the framework does before executing: the raw Vertical mask {W} never
	// runs on Horizontal wavefronts, its transpose {N} does.
	patternMasks := map[Pattern][]DepMask{}
	for _, m := range AllDepMasks() {
		canon, reduction := CanonicalPattern(Classify(m))
		exec := m
		switch reduction {
		case ReduceTranspose:
			exec = m.Transpose()
		case ReduceMirror:
			exec = m.MirrorColumns()
		}
		patternMasks[canon] = append(patternMasks[canon], exec)
	}
	// Horizontal must also be safe for inverted-L masks, since the
	// framework executes {NW} through horizontal case-1 (§V-B).
	patternMasks[Horizontal] = append(patternMasks[Horizontal], DepNW)

	offsets := map[DepMask][2]int{
		DepW:  {0, -1},
		DepNW: {-1, -1},
		DepN:  {-1, 0},
		DepNE: {-1, 1},
	}
	for _, p := range canonicalPatterns {
		masks := patternMasks[p]
		if len(masks) == 0 {
			t.Fatalf("no masks recorded for %s", p)
		}
		w := NewWavefronts(p, 7, 8)
		frontOf := map[[2]int]int{}
		for ft := 0; ft < w.Fronts; ft++ {
			for k := 0; k < w.Size(ft); k++ {
				i, j := w.Cell(ft, k)
				frontOf[[2]int{i, j}] = ft
			}
		}
		for _, m := range masks {
			// Skip masks whose canonical form doesn't match p, except the
			// deliberate horizontal/inverted-L overlap above.
			for ft := 0; ft < w.Fronts; ft++ {
				for k := 0; k < w.Size(ft); k++ {
					i, j := w.Cell(ft, k)
					for bit, off := range offsets {
						if !m.Has(bit) {
							continue
						}
						ni, nj := i+off[0], j+off[1]
						if ni < 0 || ni >= 7 || nj < 0 || nj >= 8 {
							continue
						}
						if nf := frontOf[[2]int{ni, nj}]; nf >= ft {
							t.Fatalf("%s with %s: cell (%d,%d) front %d depends on (%d,%d) front %d",
								p, m, i, j, ft, ni, nj, nf)
						}
					}
				}
			}
		}
	}
}

// Property: partition holds for random dimensions.
func TestWavefrontsPartitionProperty(t *testing.T) {
	f := func(pr, r, c uint8) bool {
		p := canonicalPatterns[int(pr)%len(canonicalPatterns)]
		rows := int(r%12) + 1
		cols := int(c%12) + 1
		w := NewWavefronts(p, rows, cols)
		total := 0
		for ft := 0; ft < w.Fronts; ft++ {
			total += w.Size(ft)
		}
		return total == rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWavefrontsMaxWidth(t *testing.T) {
	cases := []struct {
		p          Pattern
		rows, cols int
		want       int
	}{
		{AntiDiagonal, 5, 5, 5},
		{AntiDiagonal, 3, 7, 3},
		{Horizontal, 5, 9, 9},
		{InvertedL, 5, 5, 9},  // first L: 5 + 4
		{KnightMove, 6, 4, 2}, // fronts hold at most ceil(min(rows, cols/2+1)) cells
	}
	for _, c := range cases {
		w := NewWavefronts(c.p, c.rows, c.cols)
		if got := w.MaxWidth(); got != c.want {
			t.Errorf("%s %dx%d MaxWidth = %d, want %d", c.p, c.rows, c.cols, got, c.want)
		}
	}
}

func TestWavefrontsSizeOutOfRange(t *testing.T) {
	w := NewWavefronts(AntiDiagonal, 3, 3)
	if w.Size(-1) != 0 || w.Size(99) != 0 {
		t.Error("out-of-range fronts should have size 0")
	}
}

// The parallelism profiles of §III: anti-diagonal and knight-move grow then
// shrink; horizontal is constant; inverted-L strictly shrinks.
func TestParallelismProfiles(t *testing.T) {
	wA := NewWavefronts(AntiDiagonal, 16, 16)
	peak := false
	for ft := 1; ft < wA.Fronts; ft++ {
		d := wA.Size(ft) - wA.Size(ft-1)
		if d < 0 {
			peak = true
		}
		if peak && d > 0 {
			t.Fatal("anti-diagonal profile is not unimodal")
		}
	}

	wH := NewWavefronts(Horizontal, 16, 16)
	for ft := 0; ft < wH.Fronts; ft++ {
		if wH.Size(ft) != 16 {
			t.Fatal("horizontal profile is not constant")
		}
	}

	wL := NewWavefronts(InvertedL, 16, 16)
	for ft := 1; ft < wL.Fronts; ft++ {
		if wL.Size(ft) >= wL.Size(ft-1) {
			t.Fatal("inverted-L profile is not strictly shrinking")
		}
	}

	wK := NewWavefronts(KnightMove, 16, 16)
	peak = false
	for ft := 1; ft < wK.Fronts; ft++ {
		d := wK.Size(ft) - wK.Size(ft-1)
		if d < 0 {
			peak = true
		}
		if peak && d > 0 {
			t.Fatal("knight-move profile is not unimodal")
		}
	}
}

// Cell returns the coordinates of the k-th cell of front t. Cells within a
// front are ordered as the pattern's coalescing-friendly layout (paper
// §IV-B) would store them, and the strategies split fronts by this index:
// anti-diagonal and knight fronts by increasing row, horizontal fronts by
// increasing column, inverted-L fronts row segment first then column
// segment.
func (w Wavefronts) Cell(t, k int) (i, j int) {
	switch w.Pattern {
	case AntiDiagonal:
		first, _ := table.AntiDiagSpan(w.Rows, w.Cols, t)
		i = first + k
		return i, t - i
	case Horizontal:
		return t, k
	case InvertedL:
		rowLen := w.Cols - t
		if k < rowLen {
			return t, t + k
		}
		return t + 1 + (k - rowLen), t
	case KnightMove:
		first, _ := table.KnightSpan(w.Rows, w.Cols, t)
		i = first + k
		return i, t - 2*i
	default:
		panic(fmt.Sprintf("core: Cell on non-canonical pattern %s", w.Pattern))
	}
}
