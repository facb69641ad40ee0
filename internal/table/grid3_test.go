package table

import "testing"

func TestGrid3RoundTrip(t *testing.T) {
	g := NewGrid3[int](4, 5, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 6; k++ {
				g.Set(i, j, k, i*100+j*10+k)
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 6; k++ {
				if got := g.At(i, j, k); got != i*100+j*10+k {
					t.Fatalf("At(%d,%d,%d) = %d", i, j, k, got)
				}
			}
		}
	}
}

func TestGrid3Dims(t *testing.T) {
	g := NewGrid3[int8](2, 3, 4)
	if g.Len() != 24 {
		t.Error("dims wrong")
	}
	if !g.InBounds(1, 2, 3) || g.InBounds(2, 0, 0) || g.InBounds(0, -1, 0) {
		t.Error("InBounds wrong")
	}
}

func TestGrid3PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid3[int](0, 2, 2)
}

func TestEqual3(t *testing.T) {
	a := NewGrid3[int](2, 2, 2)
	b := NewGrid3[int](2, 2, 2)
	a.Set(1, 1, 0, 7)
	b.Set(1, 1, 0, 7)
	if !Equal3(a, b) {
		t.Error("equal grids reported unequal")
	}
	b.Set(0, 0, 1, 9)
	if Equal3(a, b) {
		t.Error("unequal grids reported equal")
	}
	c := NewGrid3[int](2, 2, 3)
	if Equal3(a, c) {
		t.Error("different shapes reported equal")
	}
}
