package core

// The 2-D cell kernel of the tile engine, in process and under the
// scheduler: flat-slice cell evaluation, handed to the engine as its row
// kernel.

// flatKernel evaluates cells straight on a row-major backing slice. The
// generic gatherNeighbors path costs four non-inlined shape-generic calls
// per cell; here the neighbour loads are written out by hand against the
// flat slice, with the contributing-set flags hoisted out of the Deps mask
// and an interior fast path that skips the per-neighbour bounds checks.
type flatKernel[T any] struct {
	data                     []T
	cols                     int
	p                        *Problem[T]
	hasW, hasNW, hasN, hasNE bool
}

func newFlatKernel[T any](p *Problem[T], data []T, cols int) *flatKernel[T] {
	return &flatKernel[T]{
		data: data, cols: cols, p: p,
		hasW:  p.Deps.Has(DepW),
		hasNW: p.Deps.Has(DepNW),
		hasN:  p.Deps.Has(DepN),
		hasNE: p.Deps.Has(DepNE),
	}
}

// row evaluates cells [jLo, jHi) of row i, left to right: the engine's
// row kernel.
func (k *flatKernel[T]) row(i, jLo, jHi int) {
	for j := jLo; j < jHi; j++ {
		k.cell(i, j)
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
