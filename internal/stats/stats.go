// Package stats provides the least-squares power-law fits the scaling
// analysis (ext-scaling) applies to measured series.
package stats

import (
	"errors"
	"math"
)

// PowerFit is the least-squares fit of y = C * x^Alpha.
type PowerFit struct {
	C     float64
	Alpha float64
	// R2 is the coefficient of determination in log-log space.
	R2 float64
}

// FitPower fits y = C * x^alpha by linear regression in log-log space.
// All inputs must be positive; at least two points are required.
func FitPower(xs, ys []float64) (PowerFit, error) {
	if len(xs) != len(ys) {
		return PowerFit{}, errors.New("stats: mismatched series lengths")
	}
	if len(xs) < 2 {
		return PowerFit{}, errors.New("stats: need at least two points")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerFit{}, errors.New("stats: power fit requires positive values")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, intercept, r2 := linearFit(lx, ly)
	return PowerFit{C: math.Exp(intercept), Alpha: slope, R2: r2}, nil
}

// linearFit returns the least-squares slope, intercept and R^2 of y on x.
func linearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return slope, intercept, 1
	}
	var ssRes float64
	for i := range xs {
		d := ys[i] - (slope*xs[i] + intercept)
		ssRes += d * d
	}
	r2 = 1 - ssRes/ssTot
	return slope, intercept, r2
}
