// Package table provides the DP-table storage of the LDDP framework: a
// dense row-major 2-D grid, a dense lexicographic 3-D grid, and the span
// helpers that enumerate the cells of one wavefront.
//
// Paper §IV-B stores "all the cells marked with the same number ...
// together in a one dimensional array" so that GPU accesses coalesce. Here
// that placement matters only to the simulated timing model, as its
// coalesced bit (core.Options.Uncoalesced); the tables that hold real
// values are filled by the host's tile engine, which reads them row-major.
package table

import "fmt"

// Grid is a dense rows x cols table of T stored row-major: cell (i, j)
// lives at index i*cols+j of one flat slice.
type Grid[T any] struct {
	rows, cols int
	data       []T
}

// NewGrid allocates a zeroed grid. NewGrid panics on non-positive
// dimensions: every LDDP problem has at least one cell, so this is a
// programming error.
func NewGrid[T any](rows, cols int) *Grid[T] {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("table: invalid grid size %dx%d", rows, cols))
	}
	return &Grid[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// Rows returns the number of rows.
func (g *Grid[T]) Rows() int { return g.rows }

// Cols returns the number of columns.
func (g *Grid[T]) Cols() int { return g.cols }

// Len returns the total number of cells.
func (g *Grid[T]) Len() int { return g.rows * g.cols }

// At returns the value at (i, j). Only the flat index is bounds-checked,
// so an out-of-range column reads a neighbouring row; use InBounds first
// where that matters.
func (g *Grid[T]) At(i, j int) T { return g.data[i*g.cols+j] }

// Set stores v at (i, j), with At's bounds caveat.
func (g *Grid[T]) Set(i, j int, v T) { g.data[i*g.cols+j] = v }

// RowMajorData returns the backing slice, in which cell (i, j) lives at
// data[i*cols+j]. Hot kernels and wire encoders use it to walk the table
// without per-cell calls; writes through it are writes to the grid.
func (g *Grid[T]) RowMajorData() []T { return g.data }

// InBounds reports whether (i, j) is a valid cell.
func (g *Grid[T]) InBounds(i, j int) bool {
	return i >= 0 && i < g.rows && j >= 0 && j < g.cols
}

// Fill sets every cell to f(i, j). A nil f zeroes the grid.
func (g *Grid[T]) Fill(f func(i, j int) T) {
	if f == nil {
		clear(g.data)
		return
	}
	for i := 0; i < g.rows; i++ {
		for j := 0; j < g.cols; j++ {
			g.Set(i, j, f(i, j))
		}
	}
}

// Clone returns a deep copy.
func (g *Grid[T]) Clone() *Grid[T] {
	c := &Grid[T]{rows: g.rows, cols: g.cols, data: make([]T, len(g.data))}
	copy(c.data, g.data)
	return c
}

// Row returns a freshly allocated copy of row i in column order.
func (g *Grid[T]) Row(i int) []T {
	out := make([]T, g.cols)
	for j := 0; j < g.cols; j++ {
		out[j] = g.At(i, j)
	}
	return out
}

// Col returns a freshly allocated copy of column j in row order.
func (g *Grid[T]) Col(j int) []T {
	out := make([]T, g.rows)
	for i := 0; i < g.rows; i++ {
		out[i] = g.At(i, j)
	}
	return out
}

// Equal reports whether two grids have identical dimensions and cell
// values under eq.
func Equal[T any](a, b *Grid[T], eq func(x, y T) bool) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if !eq(a.At(i, j), b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// EqualComparable is Equal specialized for comparable cell types.
func EqualComparable[T comparable](a, b *Grid[T]) bool {
	return Equal(a, b, func(x, y T) bool { return x == y })
}
