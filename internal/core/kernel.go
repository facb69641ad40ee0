package core

import (
	"repro/internal/table"
)

// Cell kernels shared by the native runtimes: flat-slice cell evaluation
// (the tile engine, in process and under the scheduler, and the pool) and
// the front-indexed run(t, lo, hi) closures of the level-synchronous pool.

// flatKernel evaluates cells straight on a row-major backing slice. The
// generic gatherNeighbors path costs four non-inlined shape-generic calls
// per cell; here the neighbour loads are written out by hand against the
// flat slice, with the contributing-set flags hoisted out of the Deps mask
// and an interior fast path that skips the per-neighbour bounds checks.
type flatKernel[T any] struct {
	data                     []T
	rows, cols               int
	p                        *Problem[T]
	hasW, hasNW, hasN, hasNE bool
}

func newFlatKernel[T any](p *Problem[T], data []T, rows, cols int) *flatKernel[T] {
	return &flatKernel[T]{
		data: data, rows: rows, cols: cols, p: p,
		hasW:  p.Deps.Has(DepW),
		hasNW: p.Deps.Has(DepNW),
		hasN:  p.Deps.Has(DepN),
		hasNE: p.Deps.Has(DepNE),
	}
}

// cell evaluates (i, j). Interior cells (every neighbour in the table)
// read the flat slice directly; edge cells fall back to edgeCell.
func (k *flatKernel[T]) cell(i, j int) {
	base := i*k.cols + j
	if i > 0 && j > 0 && j+1 < k.cols {
		var nb Neighbors[T]
		up := base - k.cols
		if k.hasW {
			nb.W = k.data[base-1]
		}
		if k.hasNW {
			nb.NW = k.data[up-1]
		}
		if k.hasN {
			nb.N = k.data[up]
		}
		if k.hasNE {
			nb.NE = k.data[up+1]
		}
		k.data[base] = k.p.F(i, j, nb)
		return
	}
	k.edgeCell(i, j, base)
}

// edgeCell evaluates a cell on the table's top, left, or right edge, where
// at least one neighbour read resolves through the boundary function.
func (k *flatKernel[T]) edgeCell(i, j, base int) {
	var nb Neighbors[T]
	if k.hasW {
		if j > 0 {
			nb.W = k.data[base-1]
		} else {
			nb.W = k.p.boundary(i, j-1)
		}
	}
	if k.hasNW {
		if i > 0 && j > 0 {
			nb.NW = k.data[base-k.cols-1]
		} else {
			nb.NW = k.p.boundary(i-1, j-1)
		}
	}
	if k.hasN {
		if i > 0 {
			nb.N = k.data[base-k.cols]
		} else {
			nb.N = k.p.boundary(i-1, j)
		}
	}
	if k.hasNE {
		if i > 0 && j+1 < k.cols {
			nb.NE = k.data[base-k.cols+1]
		} else {
			nb.NE = k.p.boundary(i-1, j+1)
		}
	}
	k.data[base] = k.p.F(i, j, nb)
}

// frontRunner builds the run(t, lo, hi) kernel for a canonical wavefront
// space over a row-major grid. The kernel walks the front with an
// incremental (i, j) cursor over the flat kernel — Wavefronts.Cell would
// recompute the front span for every cell, which dominates the per-cell
// budget for cheap recurrences.
//
// The returned closure is safe for concurrent calls on disjoint ranges of
// one front, which is what lets the pool run chunks of the same front on
// different workers.
func frontRunner[T any](p *Problem[T], w Wavefronts, g *table.Grid[T]) func(t, lo, hi int) {
	k := newFlatKernel(p, g.RowMajorData(), g.Rows(), g.Cols())
	switch w.Pattern {
	case AntiDiagonal:
		return func(t, lo, hi int) {
			first, _ := table.AntiDiagSpan(w.Rows, w.Cols, t)
			i, j := first+lo, t-first-lo
			for n := hi - lo; n > 0; n-- {
				k.cell(i, j)
				i++
				j--
			}
		}
	case Horizontal:
		return func(t, lo, hi int) {
			for j := lo; j < hi; j++ {
				k.cell(t, j)
			}
		}
	case InvertedL:
		return func(t, lo, hi int) {
			rowLen := w.Cols - t
			for n := lo; n < hi; n++ {
				if n < rowLen {
					k.cell(t, t+n)
				} else {
					k.cell(t+1+(n-rowLen), t)
				}
			}
		}
	case KnightMove:
		return func(t, lo, hi int) {
			first, _ := table.KnightSpan(w.Rows, w.Cols, t)
			i, j := first+lo, t-2*(first+lo)
			for n := hi - lo; n > 0; n-- {
				k.cell(i, j)
				i++
				j -= 2
			}
		}
	}
	panic("core: frontRunner needs a canonical pattern, got " + w.Pattern.String())
}
