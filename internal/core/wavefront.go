package core

import (
	"fmt"

	"repro/internal/table"
)

// Wavefronts describes the iteration space of a canonical pattern on a
// rows x cols table: an ordered sequence of fronts, each a set of mutually
// independent cells identified by a dense in-front index.
//
// For every pattern the fronts partition the table and respect the
// dependency order: every contributing neighbour of a front-t cell lies on
// a front strictly before t (property-tested in wavefront_test.go).
type Wavefronts struct {
	Pattern    Pattern
	Rows, Cols int
	// Fronts is the number of iterations.
	Fronts int
}

// NewWavefronts builds the iteration space for a canonical pattern.
// Vertical and MInvertedL must be symmetry-reduced first; passing them
// panics.
func NewWavefronts(p Pattern, rows, cols int) Wavefronts {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("core: wavefronts on invalid table %dx%d", rows, cols))
	}
	w := Wavefronts{Pattern: p, Rows: rows, Cols: cols}
	switch p {
	case AntiDiagonal:
		w.Fronts = rows + cols - 1
	case Horizontal:
		w.Fronts = rows
	case InvertedL:
		w.Fronts = min(rows, cols)
	case KnightMove:
		w.Fronts = table.KnightFronts(rows, cols)
	default:
		panic(fmt.Sprintf("core: wavefronts for non-canonical pattern %s", p))
	}
	return w
}

// Size returns the number of cells on front t, zero outside [0, Fronts).
func (w Wavefronts) Size(t int) int {
	if t < 0 || t >= w.Fronts {
		return 0
	}
	switch w.Pattern {
	case AntiDiagonal:
		_, n := table.AntiDiagSpan(w.Rows, w.Cols, t)
		return n
	case Horizontal:
		return w.Cols
	case InvertedL:
		return table.LSpan(w.Rows, w.Cols, t)
	case KnightMove:
		_, n := table.KnightSpan(w.Rows, w.Cols, t)
		return n
	default:
		return 0
	}
}

// MaxWidth returns the size of the widest front: the peak degree of
// parallelism of the pattern's profile (paper §III).
func (w Wavefronts) MaxWidth() int {
	widest := 0
	for t := 0; t < w.Fronts; t++ {
		if s := w.Size(t); s > widest {
			widest = s
		}
	}
	return widest
}
