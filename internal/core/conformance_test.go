// Differential conformance suite: every public executor path must produce
// the byte-identical table for every dependency mask on every adversarial
// shape. The sequential solver is the oracle; the tile engine (SolveParallel
// on its derived row segments, SolveTiled on square tiles), the
// level-synchronous SolvePool, and scheduler-submitted tile engines at 1, 2
// and 4 workers (two solves in flight, so their tiles interleave) are the
// candidates. Instances are drawn from a seeded wraparound-mixing
// generator, so a failure report (mask, shape, executor, seed, first
// mismatching cell) reproduces the instance exactly.
//
// The suite lives in package core_test (not core) because the scheduler
// path imports internal/sched, which imports core.
package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/table"
)

// confProblem builds a seeded adversarial instance: the recurrence mixes
// every contributing neighbour and the cell position through wraparound
// multiply-xor steps (splitmix-style), so reordered or repeated reads and
// torn fronts change the output with overwhelming probability, unlike
// recurrences built from associative-commutative ops alone.
func confProblem(seed int64, m core.DepMask, rows, cols int) *core.Problem[int64] {
	mix := func(v int64) int64 {
		v *= -7046029254386353131 // odd constant; wraparound is the point
		v ^= int64(uint64(v) >> 29)
		v *= -4658895280553007687
		v ^= int64(uint64(v) >> 32)
		return v
	}
	return &core.Problem[int64]{
		Name: fmt.Sprintf("conf-%s-%dx%d", m, rows, cols),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb core.Neighbors[int64]) int64 {
			v := seed + int64(i)*1_000_003 + int64(j)
			if m.Has(core.DepW) {
				v = mix(v + 3*nb.W)
			}
			if m.Has(core.DepNW) {
				v = mix(v ^ nb.NW)
			}
			if m.Has(core.DepN) {
				v = mix(v + nb.N<<1)
			}
			if m.Has(core.DepNE) {
				v = mix(v - nb.NE)
			}
			return v
		},
		Boundary: func(i, j int) int64 {
			return mix(seed ^ (int64(i) << 20) ^ int64(j))
		},
		BytesPerCell: 8,
	}
}

// conformanceShapes are the adversarial dimensions: degenerate rows and
// columns, extreme aspect ratios in both directions, prime dimensions
// (no alignment with chunk or tile sizes), and a square control.
var conformanceShapes = [][2]int{
	{1, 1},
	{1, 33},
	{1, 257}, // single row wider than every chunk/inline cutoff in the matrix
	{33, 1},
	{34, 1},  // knight fronts are empty at odd t; the front scheduler once hung here
	{101, 1}, // and here, past its publish boundary
	{3, 101}, // rows << cols
	{101, 3}, // cols << rows
	{31, 37}, // primes
	{48, 48},
	{7, 600}, // several derived row segments per row, with and without W
	// Skewed 64x256 tiles in both directions at 2 and 4 workers for the
	// masks that read NE with W or NW: 3 x 2 tiles holding 8960/0,
	// 8894/66 and 255/25 cells, so one is empty and several are ragged.
	{130, 140},
}

// executorCase is one candidate executor path under test.
type executorCase struct {
	name string
	run  func(p *core.Problem[int64]) (*table.Grid[int64], error)
}

// conformanceExecutors builds the candidate list; the scheduler rows run
// on schedulers the test closes at cleanup. Worker counts above the
// machine's core count and tiny chunks/tiles are deliberate: they force
// multi-chunk fronts and cross-tile handoff even on small tables.
func conformanceExecutors(t *testing.T) []executorCase {
	cases := []executorCase{
		{"SolveParallel", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveParallel(p, 4)
		}},
		{"SolveParallel/1worker", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveParallel(p, 1)
		}},
		{"SolveParallel/2workers", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveParallel(p, 2)
		}},
		{"SolvePool/chunk7", func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolvePool(context.Background(), p, core.Options{NativeWorkers: 3, NativeChunk: 7})
		}},
	}
	for _, workers := range []int{1, 2, 4} {
		s, err := sched.New(sched.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		cases = append(cases, executorCase{fmt.Sprintf("Scheduler/%dworkers", workers), func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return schedPair(s, p)
		}})
	}
	// Tile 1 is the per-cell dependency graph.
	for _, tile := range []int{1, 3, 8} {
		cases = append(cases, executorCase{fmt.Sprintf("SolveTiled/tile%d", tile), func(p *core.Problem[int64]) (*table.Grid[int64], error) {
			return core.SolveTiled(p, tile, 4)
		}})
	}
	return cases
}

// schedPair submits p and a sibling instance (every value xor-ed with a
// constant) to s before waiting for either, so two solves are in flight
// and their tiles interleave. The sibling is checked against its own
// oracle here, so cross-talk between the two solves cannot cancel out;
// p's grid is returned for the caller's check.
func schedPair(s *sched.Scheduler, p *core.Problem[int64]) (*table.Grid[int64], error) {
	q := *p
	q.F = func(i, j int, nb core.Neighbors[int64]) int64 { return p.F(i, j, nb) ^ 0x5a5a }
	q.Boundary = func(i, j int) int64 { return p.Boundary(i, j) ^ 0x5a5a }
	ctx := context.Background()
	var hs [2]*sched.Handle
	var grids [2]func() *table.Grid[int64]
	for k, prob := range []*core.Problem[int64]{p, &q} {
		wl, finish, err := core.NewTileWorkload(ctx, prob, s.Config().Workers)
		if err != nil {
			return nil, err
		}
		if hs[k], err = s.Submit(ctx, wl, sched.SubmitOptions{}); err != nil {
			return nil, err
		}
		grids[k] = finish
	}
	for _, h := range hs {
		if err := h.Wait(); err != nil {
			return nil, err
		}
	}
	want, err := core.Solve(&q)
	if err != nil {
		return nil, err
	}
	if !table.EqualComparable(want, grids[1]()) {
		return nil, fmt.Errorf("the sibling solve in flight alongside differs from its oracle")
	}
	return grids[0](), nil
}

// reportMismatch renders a reproducible failure: the instance coordinates
// plus the first differing cell.
func reportMismatch(t *testing.T, exec string, seed int64, m core.DepMask, rows, cols int, want, got *table.Grid[int64]) {
	t.Helper()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Errorf("%s: mask=%s shape=%dx%d seed=%d: first mismatch at (%d,%d): got %d, want %d",
					exec, m, rows, cols, seed, i, j, got.At(i, j), want.At(i, j))
				return
			}
		}
	}
	t.Errorf("%s: mask=%s shape=%dx%d seed=%d: grids differ but no cell mismatch (dimension mismatch?)",
		exec, m, rows, cols, seed)
}

// TestConformanceAllMasksAllExecutors is the full differential matrix:
// 15 masks x 12 shapes x every executor path, exact table equality.
func TestConformanceAllMasksAllExecutors(t *testing.T) {
	execs := conformanceExecutors(t)
	const seed = int64(0x5eed_1dd9)
	for _, m := range core.AllDepMasks() {
		for _, d := range conformanceShapes {
			rows, cols := d[0], d[1]
			p := confProblem(seed, m, rows, cols)
			want, err := core.Solve(p)
			if err != nil {
				t.Fatalf("oracle: mask=%s shape=%dx%d: %v", m, rows, cols, err)
			}
			for _, ex := range execs {
				got, err := ex.run(p)
				if err != nil {
					t.Errorf("%s: mask=%s shape=%dx%d seed=%d: %v", ex.name, m, rows, cols, seed, err)
					continue
				}
				if !table.EqualComparable(want, got) {
					reportMismatch(t, ex.name, seed, m, rows, cols, want, got)
				}
			}
		}
	}
}

// TestConformanceSeedSweep re-runs a reduced matrix over several seeds so
// the suite is not blind to a value-dependent bug that a single seed
// happens to miss.
func TestConformanceSeedSweep(t *testing.T) {
	execs := conformanceExecutors(t)
	masks := []core.DepMask{
		core.DepW | core.DepN,  // anti-diagonal
		core.DepN,              // horizontal
		core.DepW,              // vertical (transposed)
		core.DepNW,             // inverted-L
		core.DepNE,             // mirrored inverted-L
		core.DepW | core.DepNE, // knight-move
		core.DepW | core.DepNW | core.DepN | core.DepNE, // full mask
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, m := range masks {
			p := confProblem(seed, m, 29, 43)
			want, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, ex := range execs {
				got, err := ex.run(p)
				if err != nil {
					t.Errorf("%s: mask=%s seed=%d: %v", ex.name, m, seed, err)
					continue
				}
				if !table.EqualComparable(want, got) {
					reportMismatch(t, ex.name, seed, m, 29, 43, want, got)
				}
			}
		}
	}
}
