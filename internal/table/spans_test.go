package table

import (
	"testing"
	"testing/quick"
)

func TestAntiDiagSpan(t *testing.T) {
	// 3x4 grid: diagonals have sizes 1,2,3,3,2,1.
	wantCounts := []int{1, 2, 3, 3, 2, 1}
	for d, want := range wantCounts {
		_, count := AntiDiagSpan(3, 4, d)
		if count != want {
			t.Errorf("AntiDiagSpan(3,4,%d) count = %d, want %d", d, count, want)
		}
	}
	if _, count := AntiDiagSpan(3, 4, 99); count != 0 {
		t.Error("out-of-range diagonal should have count 0")
	}
}

func TestLSpan(t *testing.T) {
	// 4x6: front k holds (6-k)+(4-k-1) cells.
	want := []int{9, 7, 5, 3}
	for k, w := range want {
		if got := LSpan(4, 6, k); got != w {
			t.Errorf("LSpan(4,6,%d) = %d, want %d", k, got, w)
		}
	}
	if LSpan(4, 6, 4) != 0 || LSpan(4, 6, -1) != 0 {
		t.Error("out-of-range L front should have count 0")
	}
}

func TestKnightSpan(t *testing.T) {
	// 3x3 grid, fronts t = 2i+j in [0, 6]:
	// t=0: (0,0); t=1: (0,1); t=2: (0,2),(1,0); t=3: (1,1); t=4: (1,2),(2,0);
	// t=5: (2,1); t=6: (2,2).
	wantCounts := []int{1, 1, 2, 1, 2, 1, 1}
	if got := KnightFronts(3, 3); got != len(wantCounts) {
		t.Fatalf("KnightFronts(3,3) = %d, want %d", got, len(wantCounts))
	}
	total := 0
	for tt, want := range wantCounts {
		_, count := KnightSpan(3, 3, tt)
		if count != want {
			t.Errorf("KnightSpan(3,3,%d) count = %d, want %d", tt, count, want)
		}
		total += count
	}
	if total != 9 {
		t.Errorf("knight fronts cover %d cells, want 9", total)
	}
}

// Property: spans partition the grid for every pattern helper.
func TestSpanPartitionProperty(t *testing.T) {
	f := func(r, c uint8) bool {
		rows := int(r%15) + 1
		cols := int(c%15) + 1
		total := 0
		for d := 0; d <= rows+cols-2; d++ {
			_, n := AntiDiagSpan(rows, cols, d)
			total += n
		}
		if total != rows*cols {
			return false
		}
		total = 0
		for k := 0; k < minInt(rows, cols); k++ {
			total += LSpan(rows, cols, k)
		}
		if total != rows*cols {
			return false
		}
		total = 0
		for tt := 0; tt < KnightFronts(rows, cols); tt++ {
			_, n := KnightSpan(rows, cols, tt)
			total += n
		}
		return total == rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCeilDivInt(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 2, 0}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {-1, 2, 0}, {-3, 2, -1}, {-4, 2, -2},
	}
	for _, c := range cases {
		if got := ceilDivInt(c.a, c.b); got != c.want {
			t.Errorf("ceilDivInt(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: PlaneSize partitions the box, and PlaneRowSpan's rows add up
// to PlaneSize on every plane.
func TestPlaneSizePartitionProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		nx := int(a%7) + 1
		ny := int(b%7) + 1
		nz := int(c%7) + 1
		total := 0
		for s := 0; s <= nx+ny+nz-3; s++ {
			size := PlaneSize(nx, ny, nz, s)
			rows := 0
			for i := 0; i < nx; i++ {
				_, n := PlaneRowSpan(ny, nz, s, i)
				rows += n
			}
			if rows != size {
				return false
			}
			total += size
		}
		return total == nx*ny*nz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
