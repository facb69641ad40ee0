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

import (
	"fmt"
	"slices"
)

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

// GridOver returns a rows x cols grid over data, row-major, without
// copying or clearing it: writes through the grid are writes to data.
// A nil data allocates a zeroed grid, as NewGrid does. GridOver panics
// on non-positive dimensions and on a non-nil data whose length is not
// rows*cols.
func GridOver[T any](rows, cols int, data []T) *Grid[T] {
	if data == nil {
		return NewGrid[T](rows, cols)
	}
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("table: %d cells for a %dx%d grid", len(data), rows, cols))
	}
	return &Grid[T]{rows: rows, cols: cols, data: data}
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

// EqualComparable reports whether two grids have identical dimensions and
// cell values.
func EqualComparable[T comparable](a, b *Grid[T]) bool {
	return a.rows == b.rows && a.cols == b.cols && slices.Equal(a.data, b.data)
}
