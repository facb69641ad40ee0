package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/table"
)

// patternMasks picks one representative contributing set per dependency
// pattern, covering all six paper patterns including the two that execute
// through symmetry adapters (Vertical -> transposed Horizontal,
// mInverted-L -> mirrored Inverted-L).
var patternMasks = map[string]DepMask{
	"anti-diagonal": DepW | DepNW | DepN,
	"horizontal":    DepNW | DepN | DepNE,
	"vertical":      DepW | DepNW,
	"inverted-l":    DepNW,
	"m-inverted-l":  DepNE,
	"knight-move":   DepW | DepNE,
}

// checkPoolMatchesSolve cross-checks the level-synchronous pool against
// the sequential reference cell-for-cell under the given options.
func checkPoolMatchesSolve(t *testing.T, m DepMask, rows, cols int, opts Options) {
	t.Helper()
	p := testProblem(m, rows, cols)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolvePool(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatalf("mask %s %dx%d opts %+v: pool differs from Solve", m, rows, cols, opts)
	}
}

// TestPoolMatchesSolveAllPatterns stress-tests the pool runtime across all
// six dependency patterns with worker counts and chunk sizes chosen to
// force every execution shape: serial cutoff only, dynamic chunk claiming,
// and barrier reuse across many fronts. Run under -race this doubles as
// the synchronization soundness test.
func TestPoolMatchesSolveAllPatterns(t *testing.T) {
	for name, m := range patternMasks {
		t.Run(name, func(t *testing.T) {
			for _, dims := range [][2]int{{61, 67}, {128, 31}, {37, 128}} {
				for _, workers := range []int{1, 2, 3, 7} {
					for _, chunk := range []int{0, 1, 16} {
						checkPoolMatchesSolve(t, m, dims[0], dims[1], Options{
							NativeWorkers: workers,
							NativeChunk:   chunk,
						})
					}
				}
			}
		})
	}
}

// TestPoolBandLookahead checks every horizontal-class contributing set —
// left-only (NW), right-only (NE), both, and none ({N}, where bands run
// fully independently) — on both schedules a horizontal table can take:
// the tile engine and the pool's global barrier between rows. The tile
// engine cuts {N}, {NW,N} and {N,NE} into one-row column bands that wait
// only on their neighbours' previous row (1100 columns give 2, 4 and 5
// bands at 2, 4 and 9 workers); the masks that read NW with NE get skewed
// tiles in (i, u = i + j) instead, one 40-row tile row of 5 tiles at 256
// u-columns each. Vertical masks reach the pool through the transpose
// adapter; the tile engine runs them as they are.
func TestPoolBandLookahead(t *testing.T) {
	const rows, cols = 40, 1100
	masks := []DepMask{DepN, DepNW | DepN, DepN | DepNE, DepNW | DepN | DepNE, DepNW | DepNE,
		DepW, DepW | DepNW}
	for _, m := range masks {
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 9} {
			got, err := SolveParallel(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(want, got) {
				t.Fatalf("mask %s workers=%d: band tiles differ from Solve", m, workers)
			}
			checkPoolMatchesSolve(t, m, rows, cols, Options{NativeWorkers: workers})
		}
	}
}

// TestPoolChunkingEdgeCases pins the chunking regressions called out for
// the seed executor: fronts smaller than the worker count, fronts one cell
// past a chunk boundary, and the single-worker degenerate case.
func TestPoolChunkingEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		opts       Options
	}{
		{"size-smaller-than-workers", 3, 4, Options{NativeWorkers: 16}},
		{"size-eq-chunk-plus-one", 17, 17, Options{NativeWorkers: 3, NativeChunk: 16}},
		{"workers-one", 40, 40, Options{NativeWorkers: 1}},
		{"chunk-one", 12, 19, Options{NativeWorkers: 5, NativeChunk: 1}},
		{"chunk-larger-than-any-front", 30, 30, Options{NativeWorkers: 4, NativeChunk: 4096}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range patternMasks {
				checkPoolMatchesSolve(t, m, tc.rows, tc.cols, tc.opts)
			}
		})
	}
}

// TestPoolOddShapes drives degenerate grid geometries through every
// pattern: single-row, single-column, and minimal square tables.
func TestPoolOddShapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 64}, {64, 1}, {2, 2}, {1, 1}, {2, 63}} {
		for _, m := range patternMasks {
			checkPoolMatchesSolve(t, m, dims[0], dims[1], Options{NativeWorkers: 4})
			checkPoolMatchesSolve(t, m, dims[0], dims[1], Options{NativeWorkers: 4, NativeChunk: 1})
		}
	}
}

// TestPoolAllMasks sweeps all 15 contributing sets through the default
// pool configuration, the same coverage net the hetero fuzz target uses.
func TestPoolAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		checkPoolMatchesSolve(t, m, 33, 45, Options{NativeWorkers: 3})
	}
}

// TestRunWavefrontsCoverage checks the raw pool driver claims every cell
// of every front exactly once, independent of any grid.
func TestRunWavefrontsCoverage(t *testing.T) {
	sizes := []int{0, 1, 3, 700, 513, 512, 2, 1025, 0, 9}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{0, 1, 7, 512} {
			var mu sync.Mutex
			seen := make([][]bool, len(sizes))
			for t := range sizes {
				seen[t] = make([]bool, sizes[t])
			}
			cfg := poolConfig{solver: "pool", phase: "fill", workers: workers, chunk: chunk}
			runWavefronts(context.Background(), cfg, len(sizes), func(t int) int { return sizes[t] },
				func(ft, lo, hi int) {
					mu.Lock()
					for k := lo; k < hi; k++ {
						if seen[ft][k] {
							t.Errorf("workers=%d chunk=%d: cell (%d,%d) computed twice", workers, chunk, ft, k)
						}
						seen[ft][k] = true
					}
					mu.Unlock()
				})
			for ft := range seen {
				for k, ok := range seen[ft] {
					if !ok {
						t.Fatalf("workers=%d chunk=%d: cell (%d,%d) never computed", workers, chunk, ft, k)
					}
				}
			}
		}
	}
}
