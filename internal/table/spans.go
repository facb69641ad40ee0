package table

// Front spans of the wavefront patterns: which cells of a rows x cols
// table (or an nx x ny x nz box) lie on one front, and how many.

// AntiDiagSpan returns the first row and the cell count of anti-diagonal d.
func AntiDiagSpan(rows, cols, d int) (firstRow, count int) {
	firstRow = maxInt(0, d-(cols-1))
	lastRow := minInt(rows-1, d)
	if lastRow < firstRow {
		return firstRow, 0
	}
	return firstRow, lastRow - firstRow + 1
}

// LSpan returns the number of cells on inverted-L front k: the row segment
// (k, k..cols-1) followed by the column segment (k+1..rows-1, k).
func LSpan(rows, cols, k int) int {
	if k < 0 || k >= minInt(rows, cols) {
		return 0
	}
	return (cols - k) + (rows - k - 1)
}

// KnightFronts returns the number of knight-move wavefronts in a rows x
// cols grid: t = 2i+j ranges over [0, 2(rows-1)+cols-1].
func KnightFronts(rows, cols int) int { return 2*(rows-1) + cols }

// KnightSpan returns the first row and cell count of knight front t: the
// cells (i, t-2i) with both coordinates in bounds.
func KnightSpan(rows, cols, t int) (firstRow, count int) {
	// Need 0 <= t-2i <= cols-1  =>  (t-cols+1)/2 <= i <= t/2.
	firstRow = maxInt(0, ceilDivInt(t-(cols-1), 2))
	lastRow := minInt(rows-1, t/2)
	if lastRow < firstRow {
		return firstRow, 0
	}
	return firstRow, lastRow - firstRow + 1
}

// PlaneSize returns the number of cells on plane s (i+j+k = s) of an
// nx x ny x nz box.
func PlaneSize(nx, ny, nz, s int) int {
	total := 0
	for i := maxInt(0, s-(ny-1)-(nz-1)); i <= minInt(nx-1, s); i++ {
		_, n := AntiDiagSpan(ny, nz, s-i)
		total += n
	}
	return total
}

// PlaneRowSpan returns, for plane s and first coordinate i, the first j
// and the count of cells (i, j, s-i-j) within the box.
func PlaneRowSpan(ny, nz, s, i int) (firstJ, count int) {
	return AntiDiagSpan(ny, nz, s-i)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ceilDivInt returns ceil(a/b) for positive b and any a.
func ceilDivInt(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
