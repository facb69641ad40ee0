package core

import (
	"context"

	"repro/internal/table"
)

// gridReader adapts a Grid to the cellReader used by gatherNeighbors.
type gridReader[T any] struct{ g *table.Grid[T] }

func (r gridReader[T]) at(i, j int) T          { return r.g.At(i, j) }
func (r gridReader[T]) inBounds(i, j int) bool { return r.g.InBounds(i, j) }

// Solve fills the problem's DP table sequentially in row-major order and
// returns the completed grid. Row-major order is dependency-safe for every
// contributing set drawn from {W, NW, N, NE}: W precedes (i,j) within the
// row, and the other three lie on the previous row. This is the reference
// implementation every other solver is tested against.
func Solve[T any](p *Problem[T]) (*table.Grid[T], error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve honoring a context, polled once per row. A
// canceled solve returns a nil grid and a *Canceled error.
func SolveContext[T any](ctx context.Context, p *Problem[T]) (*table.Grid[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := table.NewGrid[T](p.Rows, p.Cols)
	done := ctxDone(ctx)
	rd := gridReader[T]{g}
	for i := 0; i < p.Rows; i++ {
		if isDone(done) {
			return nil, canceledErr(ctx, "sequential", i)
		}
		for j := 0; j < p.Cols; j++ {
			g.Set(i, j, p.F(i, j, gatherNeighbors(p, rd, i, j)))
		}
	}
	return g, nil
}
