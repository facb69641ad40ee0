package core

import (
	"slices"
	"testing"
)

// TestFlatKernelRowSplits drives the row kernel directly, under every
// mask, on every split of each row into consecutive segments (1-cell
// segments at j = 0 and j = cols-1 included), and compares the table with
// the sequential oracle. The problem's boundary returns a distinct value
// per (i, j) and its recurrence mixes every neighbour with the position,
// so an edge cell read through the interior loop, an interior cell read
// through the boundary, or a segment that skips or repeats a cell all
// change the table.
func TestFlatKernelRowSplits(t *testing.T) {
	const rows = 3
	for _, m := range AllDepMasks() {
		for _, cols := range []int{1, 2, 3, 5, 17} {
			p := splitProblem(m, rows, cols)
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]int64, rows*cols)
			k := newFlatKernel(p, data, cols)
			// Bit b of cuts splits the row between columns b and b+1.
			for cuts := 0; cuts < 1<<(cols-1); cuts++ {
				for i := range data {
					data[i] = -1
				}
				for i := 0; i < rows; i++ {
					lo := 0
					for j := 1; j <= cols; j++ {
						if j == cols || cuts&(1<<(j-1)) != 0 {
							k.row(i, lo, j)
							lo = j
						}
					}
				}
				if !slices.Equal(data, want.RowMajorData()) {
					t.Fatalf("mask %s, %dx%d, cuts %0*b: kernel\n%v\nwant\n%v", m, rows, cols, max(cols-1, 1), cuts, data, want.RowMajorData())
				}
			}
		}
	}
}

// splitProblem is TestFlatKernelRowSplits' instance: a position-salted
// multiply-xor of every contributing neighbour, over a boundary that is
// distinct per (i, j).
func splitProblem(m DepMask, rows, cols int) *Problem[int64] {
	mix := func(v int64) int64 {
		v *= -7046029254386353131
		return v ^ int64(uint64(v)>>31)
	}
	return &Problem[int64]{
		Rows: rows, Cols: cols, Deps: m,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			v := int64(i)<<8 ^ int64(j)
			if m.Has(DepW) {
				v = mix(v + nb.W)
			}
			if m.Has(DepNW) {
				v = mix(v ^ nb.NW)
			}
			if m.Has(DepN) {
				v = mix(v - nb.N)
			}
			if m.Has(DepNE) {
				v = mix(v + 3*nb.NE)
			}
			return v
		},
		Boundary: func(i, j int) int64 { return 1<<40 + int64(i)<<16 + int64(j) },
	}
}
