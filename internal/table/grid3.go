package table

import "fmt"

// Grid3 is a dense nx x ny x nz table of T stored lexicographically: cell
// (i, j, k) lives at index (i*ny+j)*nz+k of one flat slice.
type Grid3[T any] struct {
	nx, ny, nz int
	data       []T
}

// NewGrid3 allocates a zeroed 3-D grid. It panics on non-positive
// dimensions, like NewGrid.
func NewGrid3[T any](nx, ny, nz int) *Grid3[T] {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("table: invalid grid size %dx%dx%d", nx, ny, nz))
	}
	return &Grid3[T]{nx: nx, ny: ny, nz: nz, data: make([]T, nx*ny*nz)}
}

// Len returns the total cell count.
func (g *Grid3[T]) Len() int { return g.nx * g.ny * g.nz }

// At returns the value at (i, j, k).
func (g *Grid3[T]) At(i, j, k int) T { return g.data[(i*g.ny+j)*g.nz+k] }

// Set stores v at (i, j, k).
func (g *Grid3[T]) Set(i, j, k int, v T) { g.data[(i*g.ny+j)*g.nz+k] = v }

// InBounds reports whether (i, j, k) is a valid cell.
func (g *Grid3[T]) InBounds(i, j, k int) bool {
	return i >= 0 && i < g.nx && j >= 0 && j < g.ny && k >= 0 && k < g.nz
}

// Equal3 reports whether two 3-D grids hold identical values.
func Equal3[T comparable](a, b *Grid3[T]) bool {
	if a.nx != b.nx || a.ny != b.ny || a.nz != b.nz {
		return false
	}
	for i := 0; i < a.nx; i++ {
		for j := 0; j < a.ny; j++ {
			for k := 0; k < a.nz; k++ {
				if a.At(i, j, k) != b.At(i, j, k) {
					return false
				}
			}
		}
	}
	return true
}
