package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: fewer make the percentile one or two samples wide.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is the 1-based nearest rank of the q-quantile of n samples.
func tailRank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// tailPercentile returns the nearest-rank q-quantile of xs, or an error
// when fewer than minBeyond samples lie above it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	r := tailRank(len(xs), q)
	if len(xs)-r < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d: lengthen the run", q*100, len(xs), len(xs)-r, minBeyond)
	}
	return sortedCopy(xs)[r-1], nil
}

// maxOf returns the largest value of xs.
func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// perPatternRate is the work rate of one executor over a set of inputs
// whose solve times differ by up to an order of magnitude: total cells
// divided by the sum of each input's median solve time (seconds). A
// statistic taken over the pooled samples instead jumps between the
// inputs' clusters whenever their sample counts shift by one.
func perPatternRate(cellsPerInput float64, secondsByInput [][]float64) float64 {
	sum := 0.0
	for _, xs := range secondsByInput {
		sum += median(xs)
	}
	return cellsPerInput * float64(len(secondsByInput)) / sum
}

// geoMeanOfMedians is the typical time of an op over a fixed set of
// inputs whose times differ by up to an order of magnitude: each input's
// median, combined by the geometric mean, so every input weighs the same
// and the same relative change on any input moves it alike. Like
// perPatternRate it never pools samples across inputs.
func geoMeanOfMedians(byInput [][]float64) float64 {
	logs := 0.0
	for _, xs := range byInput {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(byInput)))
}
