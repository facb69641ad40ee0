package core

import "repro/internal/table"

// Transposed returns the problem reflected through (i,j) -> (j,i), together
// with a function mapping a solved transposed grid back to the original
// orientation. Transposition turns the Vertical pattern into Horizontal
// (paper §III: "Vertical and Horizontal are symmetric in nature").
func Transposed[T any](p *Problem[T]) (*Problem[T], func(*table.Grid[T]) *table.Grid[T]) {
	orig := *p
	tp := &Problem[T]{
		Name:         p.Name + " (transposed)",
		Rows:         p.Cols,
		Cols:         p.Rows,
		Deps:         p.Deps.Transpose(),
		BytesPerCell: p.BytesPerCell,
		InputBytes:   p.InputBytes,
		F: func(i, j int, nb Neighbors[T]) T {
			// In transposed space: W'=(i,j-1) is the original (j-1,i) = N;
			// N'=(i-1,j) is the original (j,i-1) = W; NW' stays NW.
			return orig.F(j, i, Neighbors[T]{W: nb.N, N: nb.W, NW: nb.NW})
		},
	}
	if orig.Boundary != nil {
		tp.Boundary = func(i, j int) T { return orig.Boundary(j, i) }
	}
	undo := func(g *table.Grid[T]) *table.Grid[T] {
		out := table.NewGrid[T](orig.Rows, orig.Cols)
		for i := 0; i < orig.Rows; i++ {
			for j := 0; j < orig.Cols; j++ {
				out.Set(i, j, g.At(j, i))
			}
		}
		return out
	}
	return tp, undo
}

// MirroredColumns returns the problem reflected through j -> cols-1-j,
// together with a function mapping a solved mirrored grid back. Mirroring
// turns the mInverted-L pattern into Inverted-L (paper §III: "patterns
// Inverted-L and mirrored Inverted-L are also symmetric").
func MirroredColumns[T any](p *Problem[T]) (*Problem[T], func(*table.Grid[T]) *table.Grid[T]) {
	orig := *p
	last := p.Cols - 1
	mp := &Problem[T]{
		Name:         p.Name + " (mirrored)",
		Rows:         p.Rows,
		Cols:         p.Cols,
		Deps:         p.Deps.MirrorColumns(),
		BytesPerCell: p.BytesPerCell,
		InputBytes:   p.InputBytes,
		F: func(i, j int, nb Neighbors[T]) T {
			// In mirrored space: NW'=(i-1,j-1) is the original
			// (i-1, last-j+1) = NE; NE' is the original NW; N' stays N.
			return orig.F(i, last-j, Neighbors[T]{NW: nb.NE, NE: nb.NW, N: nb.N})
		},
	}
	if orig.Boundary != nil {
		mp.Boundary = func(i, j int) T { return orig.Boundary(i, last-j) }
	}
	undo := func(g *table.Grid[T]) *table.Grid[T] {
		out := table.NewGrid[T](orig.Rows, orig.Cols)
		for i := 0; i < orig.Rows; i++ {
			for j := 0; j < orig.Cols; j++ {
				out.Set(i, j, g.At(i, last-j))
			}
		}
		return out
	}
	return mp, undo
}

// canonicalize reduces a problem to its canonical pattern, returning the
// problem to execute, the canonical pattern, the reduction applied, and
// the grid restorer (identity when no reduction applies).
func canonicalize[T any](p *Problem[T]) (*Problem[T], Pattern, Reduction, func(*table.Grid[T]) *table.Grid[T]) {
	pattern := Classify(p.Deps)
	canonical, reduction := CanonicalPattern(pattern)
	switch reduction {
	case ReduceTranspose:
		tp, undo := Transposed(p)
		return tp, canonical, reduction, undo
	case ReduceMirror:
		mp, undo := MirroredColumns(p)
		return mp, canonical, reduction, undo
	default:
		return p, canonical, reduction, func(g *table.Grid[T]) *table.Grid[T] { return g }
	}
}
