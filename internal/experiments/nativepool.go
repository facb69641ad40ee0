package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

// Ablation: the dependency-driven tile engine behind SolveParallel
// (internal/core/async.go) against the level-synchronous worker pool
// (internal/core/pool.go), the paper's front-by-front schedule. Unlike
// every other experiment, these are *real* wall-clock measurements of host
// goroutines, not simulated timelines — the numbers depend on the machine
// running them, so the experiment is registered as Live and excluded from
// the golden-artifact freshness test.

// measureBest runs f reps times and returns the fastest wall-clock run:
// minimum, not mean, is the standard estimator for the noise-free runtime
// of a deterministic computation.
func measureBest(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunNativePool measures the tile engine against the level-synchronous
// pool on an anti-diagonal workload (Levenshtein, whose pool fronts grow
// and shrink) and a horizontal one (checkerboard, whose tiles are the
// pool's rows cut into column bands), plus the pool's chunk-size sweep.
func RunNativePool(cfg Config) ([]Table, error) {
	sizes := []int{1024, 2048, 4096}
	reps := 3
	if cfg.Quick {
		sizes = []int{256}
		reps = 1
	}
	pool := func(p *core.Problem[int32], chunk int) error {
		_, err := core.SolvePool(context.Background(), p, core.Options{NativeChunk: chunk})
		return err
	}
	tiles := func(p *core.Problem[int32]) error {
		_, err := core.SolveParallel(p, 0)
		return err
	}

	// Correctness gate: both executors must agree with the sequential
	// reference on both workloads before any timing is reported.
	for _, w := range []struct {
		name string
		p    *core.Problem[int32]
	}{
		{"Levenshtein", Fig10Problem(cfg.Seed, sizes[0])},
		{"checkerboard", Fig13Problem(cfg.Seed, sizes[0])},
	} {
		want, err := core.Solve(w.p)
		if err != nil {
			return nil, err
		}
		gotPool, err := core.SolvePool(context.Background(), w.p, core.Options{})
		if err != nil {
			return nil, err
		}
		gotTiles, err := core.SolveParallel(w.p, 0)
		if err != nil {
			return nil, err
		}
		if !table.EqualComparable(want, gotPool) || !table.EqualComparable(want, gotTiles) {
			return nil, fmt.Errorf("nativepool: pool or tile engine disagrees with Solve on %s %d", w.name, sizes[0])
		}
	}

	compare := func(title string, build func(seed uint64, n int) *core.Problem[int32]) (Table, error) {
		t := Table{Title: title, Header: []string{"n", "pool", "tiles", "speedup"}}
		for _, n := range sizes {
			p := build(cfg.Seed, n)
			dPool, err := measureBest(reps, func() error { return pool(p, 0) })
			if err != nil {
				return t, err
			}
			dTiles, err := measureBest(reps, func() error { return tiles(p) })
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), fd(dPool), fd(dTiles), ratio(dPool, dTiles)})
		}
		return t, nil
	}
	antiDiag, err := compare("Anti-diagonal (Levenshtein): level-synchronous pool vs tile engine", Fig10Problem)
	if err != nil {
		return nil, err
	}
	horiz, err := compare("Horizontal (checkerboard): level-synchronous pool vs tile engine", Fig13Problem)
	if err != nil {
		return nil, err
	}

	chunkN := sizes[len(sizes)-1]
	chunkP := Fig10Problem(cfg.Seed, chunkN)
	chunks := Table{
		Title:  fmt.Sprintf("Dynamic chunk-size sweep (Levenshtein %d, level-synchronous pool)", chunkN),
		Header: []string{"chunk", "pool"},
	}
	for _, c := range []int{64, 128, 256, 512, 1024, 2048} {
		d, err := measureBest(reps, func() error { return pool(chunkP, c) })
		if err != nil {
			return nil, err
		}
		chunks.Rows = append(chunks.Rows, []string{fmt.Sprint(c), fd(d)})
	}

	return []Table{antiDiag, horiz, chunks}, nil
}
