package core

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// Resilient execution in unreliable memory, after the fault model of the
// LDDP line of work the paper cites (Caminiti, Finocchi & Fusco: "Local
// dependency dynamic programming in the presence of memory faults").
//
// Model: computation (registers) is safe, but values stored in the large
// DP table may be corrupted at rest. The resilient solver writes every
// computed cell to `replicas` independent grids — each write passing
// through a caller-supplied fault injector — and resolves each later read
// by majority vote across the replicas. With r replicas the solve
// tolerates any pattern of faults that corrupts fewer than ceil(r/2)
// replicas of the same cell.

// FaultFunc models unreliable memory: it receives the replica index, the
// cell coordinates, and the value being stored, and returns the value the
// memory actually retains. A nil FaultFunc is perfect memory.
type FaultFunc[T any] func(replica, i, j int, v T) T

// SolveResilient fills the DP table with replicated, majority-voted
// storage. The returned grid is the majority-reconstructed table; the
// second result counts cells at which at least one replica disagreed with
// the majority (detected-and-corrected faults).
func SolveResilient[T comparable](p *Problem[T], replicas int, fault FaultFunc[T]) (*table.Grid[T], int, error) {
	return SolveResilientContext(context.Background(), p, replicas, fault)
}

// SolveResilientContext is SolveResilient honoring a context, polled once
// per row. A canceled solve returns a nil grid and a *Canceled error.
func SolveResilientContext[T comparable](ctx context.Context, p *Problem[T], replicas int, fault FaultFunc[T]) (*table.Grid[T], int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if replicas < 1 {
		return nil, 0, fmt.Errorf("core: replicas %d < 1", replicas)
	}
	if fault == nil {
		fault = func(_, _, _ int, v T) T { return v }
	}
	done := ctxDone(ctx)
	grids := make([]*table.Grid[T], replicas)
	for r := range grids {
		grids[r] = table.NewGrid[T](p.Rows, p.Cols)
	}
	rd := majorityReader[T]{grids: grids}
	corrected := 0
	for i := 0; i < p.Rows; i++ {
		if isDone(done) {
			return nil, 0, canceledErr(ctx, "resilient", i)
		}
		for j := 0; j < p.Cols; j++ {
			v := p.F(i, j, gatherNeighbors(p, rd, i, j))
			for r := range grids {
				grids[r].Set(i, j, fault(r, i, j, v))
			}
			// Fault accounting: compare what memory retained to the
			// computed value.
			for r := range grids {
				if grids[r].At(i, j) != v {
					corrected++
					break
				}
			}
		}
	}
	// Reconstruct the majority view once more for the returned grid, so
	// the caller sees exactly what later reads would have seen.
	out := table.NewGrid[T](p.Rows, p.Cols)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			out.Set(i, j, rd.at(i, j))
		}
	}
	return out, corrected, nil
}

// majorityReader resolves reads by majority vote across replicas; with no
// strict majority it falls back to the first replica (detectable but not
// correctable corruption).
type majorityReader[T comparable] struct {
	grids []*table.Grid[T]
}

func (m majorityReader[T]) at(i, j int) T {
	if len(m.grids) == 1 {
		return m.grids[0].At(i, j)
	}
	// Boyer-Moore majority vote over the replica values.
	var candidate T
	count := 0
	for _, g := range m.grids {
		v := g.At(i, j)
		switch {
		case count == 0:
			candidate, count = v, 1
		case v == candidate:
			count++
		default:
			count--
		}
	}
	// Verify the candidate actually holds a strict majority.
	n := 0
	for _, g := range m.grids {
		if g.At(i, j) == candidate {
			n++
		}
	}
	if 2*n > len(m.grids) {
		return candidate
	}
	return m.grids[0].At(i, j)
}

func (m majorityReader[T]) inBounds(i, j int) bool { return m.grids[0].InBounds(i, j) }
