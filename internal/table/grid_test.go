package table

import (
	"testing"
)

func TestNewGridZeroed(t *testing.T) {
	g := NewGrid[int](3, 4)
	if g.Rows() != 3 || g.Cols() != 4 || g.Len() != 12 {
		t.Fatalf("dims = %dx%d len %d", g.Rows(), g.Cols(), g.Len())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if g.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %d, want 0", i, j, g.At(i, j))
			}
		}
	}
}

func TestNewGridPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%d,%d) should panic", dims[0], dims[1])
				}
			}()
			NewGrid[int](dims[0], dims[1])
		}()
	}
}

func TestGridSetAtRoundTrip(t *testing.T) {
	g := NewGrid[int](5, 7)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			g.Set(i, j, 100*i+j)
		}
	}
	flat := g.RowMajorData()
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if got := g.At(i, j); got != 100*i+j {
				t.Errorf("At(%d,%d) = %d, want %d", i, j, got, 100*i+j)
			}
			if got := flat[i*7+j]; got != 100*i+j {
				t.Errorf("RowMajorData()[%d] = %d, want %d", i*7+j, got, 100*i+j)
			}
		}
	}
}

func TestGridInBounds(t *testing.T) {
	g := NewGrid[int](2, 3)
	cases := []struct {
		i, j int
		want bool
	}{
		{0, 0, true}, {1, 2, true}, {-1, 0, false}, {0, -1, false},
		{2, 0, false}, {0, 3, false},
	}
	for _, c := range cases {
		if got := g.InBounds(c.i, c.j); got != c.want {
			t.Errorf("InBounds(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewGrid[int](2, 2)
	b := NewGrid[int](2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			a.Set(i, j, i+j)
			b.Set(i, j, i+j)
		}
	}
	if !EqualComparable(a, b) {
		t.Error("grids with equal values should be Equal")
	}
	b.Set(1, 1, 99)
	if EqualComparable(a, b) {
		t.Error("differing grids reported Equal")
	}
	c := NewGrid[int](2, 3)
	if EqualComparable(a, c) {
		t.Error("different-shape grids reported Equal")
	}
}
