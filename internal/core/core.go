// Package core implements the heterogeneous LDDP framework of Kumar &
// Kothapalli, "A Novel Heterogeneous Framework for Local Dependency Dynamic
// Programming Problems" (2015).
//
// An LDDP-Plus problem fills a 2-D table where cell (i,j) is a function of
// some subset of its four non-conflicting earlier neighbours — the
// representative set {W, NW, N, NE}. The subset actually read (the
// contributing set, a DepMask here) determines the dependency pattern
// (Classify, paper Table I), the pattern determines the wavefront iteration
// space and the CPU/GPU execution strategy, and the strategy determines the
// data-transfer scheme (TransferNeed, paper Table II).
//
// The package offers four solvers over a user-supplied Problem:
//
//   - Solve: sequential reference (row-major fill).
//   - SolveParallel: real goroutine wavefront solver for multicore hosts.
//   - SolveHetero: the paper's heterogeneous framework, planned against a
//     simulated CPU+GPU platform (internal/hetsim) into a deterministic
//     simulated timeline; the cell values come from the native tile
//     engine.
//   - SolveCPUOnly / SolveGPUOnly: simulated single-device baselines used
//     by the paper's figures.
//
// A user supplies only the recurrence F, the dependency mask, and the
// boundary condition — exactly the interface the paper prescribes in §V-C
// ("a user has to provide ... Function f ... [and] Initialization").
package core
