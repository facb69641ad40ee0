package core

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// SolveBanded fills only the cells within |i-j| <= band of the DP table,
// the classic Ukkonen band restriction for alignment-style anti-diagonal
// problems. Cells outside the band are set to outOfBand(i, j), and in-band
// cells observe that value when a contributing neighbour falls outside the
// band (out-of-table neighbours still resolve through p.Boundary).
//
// For contracting recurrences like edit distance, the banded result equals
// the full solve whenever the true answer stays within the band (distance
// <= band), at O(rows x band) cost instead of O(rows x cols). The caller
// chooses outOfBand to be absorbing for the recurrence (+infinity for
// minimizations).
func SolveBanded[T any](p *Problem[T], band int, outOfBand BoundaryFunc[T]) (*table.Grid[T], error) {
	return SolveBandedContext(context.Background(), p, band, outOfBand)
}

// SolveBandedContext is SolveBanded honoring a context, polled once per
// row. A canceled solve returns a nil grid and a *Canceled error.
func SolveBandedContext[T any](ctx context.Context, p *Problem[T], band int, outOfBand BoundaryFunc[T]) (*table.Grid[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if band < 0 {
		return nil, fmt.Errorf("core: band %d negative", band)
	}
	if outOfBand == nil {
		return nil, fmt.Errorf("core: outOfBand function required (an absorbing value for the recurrence)")
	}
	done := ctxDone(ctx)
	g := table.NewGrid[T](p.Rows, p.Cols)
	g.Fill(func(i, j int) T { return outOfBand(i, j) })

	rd := bandReader[T]{g: g, band: band, outOfBand: outOfBand}
	for i := 0; i < p.Rows; i++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "banded", i)
		}
		jLo := max(0, i-band)
		jHi := min(p.Cols-1, i+band)
		for j := jLo; j <= jHi; j++ {
			g.Set(i, j, p.F(i, j, gatherNeighbors(p, rd, i, j)))
		}
	}
	return g, nil
}

// bandReader reads in-band cells from the grid and resolves out-of-band
// cells to the absorbing value. Out-of-table reads still fall through to
// the problem's Boundary (inBounds returns false).
type bandReader[T any] struct {
	g         *table.Grid[T]
	band      int
	outOfBand BoundaryFunc[T]
}

func (r bandReader[T]) at(i, j int) T {
	d := i - j
	if d < 0 {
		d = -d
	}
	if d > r.band {
		return r.outOfBand(i, j)
	}
	return r.g.At(i, j)
}

func (r bandReader[T]) inBounds(i, j int) bool { return r.g.InBounds(i, j) }

// BandWidth returns the number of in-band cells of row i, for cost
// accounting.
func BandWidth(rows, cols, band, i int) int {
	jLo := max(0, i-band)
	jHi := min(cols-1, i+band)
	if jHi < jLo {
		return 0
	}
	return jHi - jLo + 1
}
