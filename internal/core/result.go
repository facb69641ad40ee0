package core

import (
	"time"

	"repro/internal/hetsim"
	"repro/internal/table"
)

// Result is the outcome of a simulated solve (SolveHetero, SolveCPUOnly,
// SolveGPUOnly).
type Result[T any] struct {
	// Grid holds the computed table in the original problem orientation.
	// Nil when Options.SkipCompute was set.
	Grid *table.Grid[T]

	// Pattern is the problem's Table-I pattern.
	Pattern Pattern
	// Executed is the canonical pattern the strategy actually ran after
	// symmetry reduction and the inverted-L -> horizontal preference.
	Executed Pattern
	// Reduction is the symmetry transform applied (none/transpose/mirror).
	Reduction Reduction
	// Transfer is the Table-II transfer requirement of the problem.
	Transfer TransferKind

	// TSwitch and TShare are the work-division parameters actually used.
	TSwitch, TShare int

	// Time is the simulated wall-clock duration (the timeline makespan).
	Time time.Duration
	// Timeline is the full resolved schedule.
	Timeline hetsim.Timeline
	// Critical is the chain of operations whose waits compose the
	// makespan, in execution order (see hetsim.Sim.CriticalPath).
	Critical []hetsim.OpRecord
}
