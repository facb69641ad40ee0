package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/problems"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/lddp"
)

// tablesSide is the side of every case-study table: large enough that
// each solve is milliseconds of executor work, small enough that a
// 30-second window holds a dozen rounds of all 20 pairs.
const tablesSide = 1024

// tablesWorkers is the executors' worker count: the host's two cores.
const tablesWorkers = 2

// tablesStrategies are the executors the tables workload times, in
// metric-name order.
var tablesStrategies = []struct {
	name string
	s    lddp.Strategy
}{
	{"sequential", lddp.Sequential},
	{"parallel", lddp.Parallel},
	{"tiled", lddp.Tiled},
	{"async", lddp.Async},
	{"hetero", lddp.Hetero},
}

// caseStudy is one of the paper's canonical problems, named by its
// dependency pattern.
type caseStudy struct {
	pattern string
	p       *lddp.Problem[int32]
}

// caseStudies builds the four case studies of one seed: Levenshtein
// (anti-diagonal), checkerboard (horizontal), the Fig. 8 {NW} recurrence
// (inverted-L) and Floyd-Steinberg dithering (knight-move).
func caseStudies(seed uint64, n int) []caseStudy {
	return []caseStudy{
		{"antidiagonal", experiments.Fig10Problem(seed, n)},
		{"horizontal", experiments.Fig13Problem(seed, n)},
		{"invertedl", fig8Problem(seed, n)},
		{"knight", experiments.Fig12Problem(seed, n)},
	}
}

// fig8Problem is the paper's Fig. 8 recurrence f(i,j) = max(cell[i][j],
// f(i-1,j-1)) + 1 over a seeded input grid. experiments.Fig8Measure
// builds it only inside its timing sweep, with a fixed input.
func fig8Problem(seed uint64, n int) *lddp.Problem[int32] {
	cell := workload.CostGrid(seed, n, n, 64)
	return &lddp.Problem[int32]{
		Name: "fig8", Rows: n, Cols: n, Deps: lddp.DepNW,
		F: func(i, j int, nb lddp.Neighbors[int32]) int32 {
			return max(cell[i][j], nb.NW) + 1
		},
		BytesPerCell: 4,
		InputBytes:   n * n * 4,
	}
}

// tablesRun is one run's state: the case studies and, per (strategy,
// pattern) pair, the solve times and result digests of the timed window.
type tablesRun struct {
	seed    uint64
	cases   []caseStudy
	secs    [][][]float64 // [strategy][pattern] solve seconds
	digests [][][]uint64  // [strategy][pattern] result digests
}

func newTablesRun(seed uint64) (*tablesRun, error) {
	r := &tablesRun{seed: seed, cases: caseStudies(seed, tablesSide)}
	r.secs = make([][][]float64, len(tablesStrategies))
	r.digests = make([][][]uint64, len(tablesStrategies))
	for s := range tablesStrategies {
		r.secs[s] = make([][]float64, len(r.cases))
		r.digests[s] = make([][]uint64, len(r.cases))
	}
	// Warm-up: one solve of every pair on a quarter-side instance, so
	// every executor's code and pools are live before the first timed op.
	for _, cs := range caseStudies(seed^0x5eed, tablesSide/4) {
		for _, st := range tablesStrategies {
			if _, err := solveTable(context.Background(), cs.p, st.s); err != nil {
				return nil, fmt.Errorf("warm-up %s %s: %w", st.name, cs.pattern, err)
			}
		}
	}
	return r, nil
}

func solveTable(ctx context.Context, p *lddp.Problem[int32], s lddp.Strategy) (*lddp.Result[int32], error) {
	return lddp.Solve(ctx, p, lddp.WithStrategy(s), lddp.WithWorkers(tablesWorkers))
}

// gridDigest is wire.CellsDigest over an int32 result table, the
// witness every executor's output is compared on.
func gridDigest(g *lddp.Grid[int32]) uint64 {
	h := wire.DigestWord(wire.DigestInit(), uint64(g.Rows())<<32|uint64(g.Cols()))
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			h = wire.DigestWord(h, uint64(int64(g.At(i, j))))
		}
	}
	return h
}

// tablesTrace is what the traced rounds add: per-solve allocations,
// the hetsim timing-only solves, and the spans.
type tablesTrace struct {
	spans      *spanLog
	allocBytes []uint64      // [strategy] bytes allocated during traced solves
	cells      []uint64      // [strategy] cells of traced solves
	untraced   [][][]float64 // [strategy][pattern] solve seconds in untraced rounds
	timingOnly [][]float64   // [pattern] SkipCompute hetero seconds
	simMS      [][]float64   // [pattern] simulated makespan of the hetero solves
}

const (
	laneCore = iota
	laneHetsim
)

// runTables times the 20 (pattern, strategy) pairs round-robin, so drift
// on the host hits every pair alike, and reports each strategy's rate
// from per-pattern medians.
func runTables(cfg config) (*report, error) {
	r, setup, err := repeatSetup(func() (*tablesRun, error) { return newTablesRun(cfg.seed) }, func(*tablesRun) {})
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	var tt *tablesTrace
	if cfg.traced {
		tt = &tablesTrace{
			spans:      newSpanLog("core", "hetsim"),
			allocBytes: make([]uint64, len(tablesStrategies)),
			cells:      make([]uint64, len(tablesStrategies)),
			untraced:   make([][][]float64, len(tablesStrategies)),
			timingOnly: make([][]float64, len(r.cases)),
			simMS:      make([][]float64, len(r.cases)),
		}
		for si := range tt.untraced {
			tt.untraced[si] = make([][]float64, len(r.cases))
		}
	}

	ctx := context.Background()
	cells := float64(tablesSide * tablesSide)
	before := readAllocs()
	start := time.Now()
	var lastRound time.Duration
	rounds := 0
	for rounds == 0 || time.Since(start)+lastRound <= cfg.window {
		roundStart := time.Now()
		// A traced run alternates untraced and traced rounds, so both
		// halves of trace.overhead_ratio see the same host drift.
		traced := tt != nil && rounds%2 == 1
		for pi, cs := range r.cases {
			for si, st := range tablesStrategies {
				rep.attempted++
				var a0 allocs
				if traced {
					a0 = readAllocs()
				}
				t0 := time.Now()
				res, err := solveTable(ctx, cs.p, st.s)
				t1 := time.Now()
				if err != nil {
					rep.failed++
					rep.notef("%s %s: %v", st.name, cs.pattern, err)
					continue
				}
				d := t1.Sub(t0).Seconds()
				switch {
				case traced:
					a := readAllocs().since(a0)
					tt.allocBytes[si] += a.bytes
					tt.cells[si] += uint64(cells)
					tt.spans.add(laneCore, st.name, int64(pi), int64(cells), t0, t1)
					r.secs[si][pi] = append(r.secs[si][pi], d)
					if st.s == lddp.Hetero {
						tt.simMS[pi] = append(tt.simMS[pi], float64(res.SimTime.Nanoseconds())/1e6)
					}
				case tt != nil:
					tt.untraced[si][pi] = append(tt.untraced[si][pi], d)
				default:
					r.secs[si][pi] = append(r.secs[si][pi], d)
				}
				r.digests[si][pi] = append(r.digests[si][pi], gridDigest(res.Grid))
			}
			if traced {
				t0 := time.Now()
				_, err := core.SolveHetero(cs.p, core.Options{TSwitch: -1, TShare: -1, SkipCompute: true})
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("timing-only hetero %s: %w", cs.pattern, err)
				}
				tt.timingOnly[pi] = append(tt.timingOnly[pi], t1.Sub(t0).Seconds())
				tt.spans.add(laneHetsim, "timing-only", int64(pi), int64(cells), t0, t1)
			}
		}
		rounds++
		lastRound = time.Since(roundStart)
	}
	window := time.Since(start)
	used := readAllocs().since(before)
	rep.notef("tables: %d rounds of %d pairs at %dx%d, %d workers, window %.1fs", rounds, len(tablesStrategies)*len(r.cases), tablesSide, tablesSide, tablesWorkers, window.Seconds())

	if err := r.check(rep); err != nil {
		return nil, err
	}
	if tt != nil {
		return rep, r.reportTraced(rep, tt, cfg.traceOut)
	}
	for si, st := range tablesStrategies {
		rep.detail("cells_per_s."+st.name, "cells/s", perPatternRate(cells, r.secs[si]), len(r.secs[si][0])*len(r.cases))
	}
	ops := float64(rep.attempted)
	rep.add("setup_s", "s", setup, setupRepeats)
	rep.add("latency_ms", "ms", geoMeanOfMedians(byPair(r.secs))*1e3, int(rep.attempted-rep.failed))
	rep.add("goodput_per_s", "1/s", float64(rep.attempted-rep.failed)/window.Seconds(), int(rep.attempted))
	rep.add("alloc_bytes_per_cell", "B/cell", float64(used.bytes)/(ops*cells), 0)
	rep.add("allocs_per_op", "allocs/op", float64(used.objects)/ops, 0)
	return rep, nil
}

// byPair flattens [strategy][pattern] samples into one list per
// (strategy, pattern) pair.
func byPair(secs [][][]float64) [][]float64 {
	var out [][]float64
	for _, byPattern := range secs {
		out = append(out, byPattern...)
	}
	return out
}

// check compares every solve's digest with the sequential oracle of its
// pattern, and the oracles of the three case studies that have one with
// the problems package's reference implementations.
func (r *tablesRun) check(rep *report) error {
	for pi, cs := range r.cases {
		res, err := lddp.Solve(context.Background(), cs.p, lddp.WithStrategy(lddp.Sequential))
		if err != nil {
			return fmt.Errorf("oracle %s: %w", cs.pattern, err)
		}
		want := gridDigest(res.Grid)
		for si, st := range tablesStrategies {
			for _, got := range r.digests[si][pi] {
				if got != want {
					rep.correct = false
					rep.notef("MISMATCH %s %s: digest %016x, oracle %016x", st.name, cs.pattern, got, want)
					break
				}
			}
		}
		if err := referenceCheck(cs.pattern, r.seed, res.Grid); err != nil {
			rep.correct = false
			rep.notef("MISMATCH %s reference: %v", cs.pattern, err)
		}
	}
	return nil
}

// referenceCheck validates an oracle table against the problems
// package's independent reference, regenerating the inputs the
// experiments package builds the case study from. The Fig. 8
// recurrence has no reference implementation.
func referenceCheck(pattern string, seed uint64, g *lddp.Grid[int32]) error {
	n := g.Rows()
	switch pattern {
	case "antidiagonal":
		a, b := workload.SimilarStrings(seed, n-1, workload.ASCIIAlphabet, 0.2)
		if got, want := problems.LevenshteinDistance(g, a, b), problems.LevenshteinRef(a, b); got != want {
			return fmt.Errorf("distance %d, LevenshteinRef %d", got, want)
		}
	case "horizontal":
		_, want := problems.CheckerboardRef(workload.CostGrid(seed, n, n, 100))
		if got := problems.CheckerboardBest(g); got != want {
			return fmt.Errorf("best path %d, CheckerboardRef %d", got, want)
		}
	case "knight":
		want, _ := problems.DitherRef(workload.GrayImage(seed, n, n))
		got := problems.DitherOutput(g)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					return fmt.Errorf("pixel (%d,%d) = %d, DitherRef %d", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	return nil
}

// reportTraced prints the per-layer metrics of a traced run and writes
// its spans.
func (r *tablesRun) reportTraced(rep *report, tt *tablesTrace, path string) error {
	if len(r.secs[0][0]) == 0 {
		return fmt.Errorf("the window held no traced round; lengthen it")
	}
	for si, st := range tablesStrategies {
		for pi, cs := range r.cases {
			xs := r.secs[si][pi]
			rep.detail(fmt.Sprintf("core.solve_ms.%s.%s", st.name, cs.pattern), "ms", median(xs)*1e3, len(xs))
		}
	}
	for si, st := range tablesStrategies {
		rep.detail("core.alloc_bytes_per_cell."+st.name, "B/cell", float64(tt.allocBytes[si])/float64(tt.cells[si]), 0)
	}
	for pi, cs := range r.cases {
		rep.detail("hetsim.timing_only_ms."+cs.pattern, "ms", median(tt.timingOnly[pi])*1e3, len(tt.timingOnly[pi]))
	}
	for pi, cs := range r.cases {
		rep.detail("hetsim.sim_ms."+cs.pattern, "ms_sim", median(tt.simMS[pi]), 0)
	}
	traced, untraced := geoMeanOfMedians(byPair(r.secs)), geoMeanOfMedians(byPair(tt.untraced))
	rep.add("solve_ms", "ms", traced*1e3, len(r.secs[0][0])*len(tablesStrategies)*len(r.cases))
	rep.add("trace.overhead_ratio", "1", traced/untraced, 0)
	return tt.spans.write(path, "perfbench-tables")
}
