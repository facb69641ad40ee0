package problems

import (
	"math"

	"repro/internal/core"
)

// DTW builds the dynamic-time-warping cost table for series x and y — the
// speech-processing workload the paper's introduction cites. With d(i,j) =
// |x[i]-y[j]|,
//
//	D(i,j) = d(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1))
//
// over a (len(x)+1) x (len(y)+1) table whose first row and column are
// +Inf except D(0,0) = 0. Contributing set {W, NW, N}: anti-diagonal.
func DTW(x, y []float64) *core.Problem[float64] {
	return &core.Problem[float64]{
		Name: "dtw",
		Rows: len(x) + 1,
		Cols: len(y) + 1,
		Deps: core.DepW | core.DepNW | core.DepN,
		F: func(i, j int, nb core.Neighbors[float64]) float64 {
			switch {
			case i == 0 && j == 0:
				return 0
			case i == 0 || j == 0:
				return math.Inf(1)
			}
			return math.Abs(x[i-1]-y[j-1]) + min(nb.W, nb.NW, nb.N)
		},
		BytesPerCell: 8,
		InputBytes:   8 * (len(x) + len(y)),
	}
}

// DTWDistance extracts the warping distance from a solved table.
func DTWDistance(g interface{ At(i, j int) float64 }, x, y []float64) float64 {
	return g.At(len(x), len(y))
}

// DTWRef computes the warping distance independently.
func DTWRef(x, y []float64) float64 {
	n, m := len(x), len(y)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cur[j] = math.Abs(x[i-1]-y[j-1]) + min(cur[j-1], prev[j-1], prev[j])
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
