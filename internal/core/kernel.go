package core

// The 2-D cell kernel of the tile engine, in process and under the
// scheduler: flat-slice cell evaluation, handed to the engine as its row
// kernel.

// flatKernel evaluates cells straight on a row-major backing slice. The
// generic gatherNeighbors path costs four non-inlined shape-generic calls
// per cell; here the neighbour loads are written out by hand against the
// flat slice, with the contributing-set flags hoisted out of the Deps mask.
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
// row kernel. Below row 0 the cells strictly inside the table
// (0 < j < cols-1) run in one loop over the row's slice and the slice
// above it; row 0 and the cells at j = 0 and j = cols-1 go to edgeCell,
// the right-edge cell after the interior it may read through W.
//
// The loop reads the flags and F from locals: after a call through F the
// compiler must reload every field of *k, since it cannot prove F left
// them alone. It loads only the neighbours the mask names, because the
// engine orders only the mask's edges: a load of an unread neighbour
// would race with the tile that writes it.
func (k *flatKernel[T]) row(i, jLo, jHi int) {
	cols := k.cols
	base := i * cols
	if i == 0 {
		for j := jLo; j < jHi; j++ {
			k.edgeCell(i, j, base+j)
		}
		return
	}
	if jLo == 0 {
		k.edgeCell(i, 0, base)
	}
	if lo, hi := max(jLo, 1), min(jHi, cols-1); lo < hi {
		f := k.p.F
		hasW, hasNW, hasN, hasNE := k.hasW, k.hasNW, k.hasN, k.hasNE
		cur, up := k.data[base:base+cols], k.data[base-cols:base]
		for j := lo; j < hi; j++ {
			var nb Neighbors[T]
			if hasW {
				nb.W = cur[j-1]
			}
			if hasNW {
				nb.NW = up[j-1]
			}
			if hasN {
				nb.N = up[j]
			}
			if hasNE {
				nb.NE = up[j+1]
			}
			cur[j] = f(i, j, nb)
		}
	}
	if jHi == cols && cols > 1 {
		k.edgeCell(i, cols-1, base+cols-1)
	}
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
