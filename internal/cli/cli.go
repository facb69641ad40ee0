// Package cli builds named problem instances for the command-line tools:
// a type-erased facade over the generic problems so lddprun and lddptune
// can dispatch on a -problem flag.
package cli

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/problems"
	"repro/internal/table"
	"repro/internal/workload"
	"repro/lddp"
)

// SimInfo summarizes a simulated solve for printing.
type SimInfo struct {
	Result   string
	Time     string
	Pattern  core.Pattern
	Executed core.Pattern
	Transfer core.TransferKind
	TSwitch  int
	TShare   int
	Timeline hetsim.Timeline
}

// Instance is a type-erased problem instance.
type Instance struct {
	Name       string
	Rows, Cols int
	Pattern    core.Pattern

	// SolveSeq runs the sequential reference and returns the answer.
	SolveSeq func() (string, error)
	// SolveParallel runs the native tile engine; opts carries the worker
	// count and the optional Tracer.
	SolveParallel func(opts core.Options) (string, error)
	// SolveSim runs a simulated solver: mode is "cpu", "gpu" or "hetero".
	SolveSim func(mode string, opts core.Options) (SimInfo, error)
	// SolveMulti runs the multi-accelerator extension (horizontal-pattern
	// problems only) with the named accelerators.
	SolveMulti func(accelNames []string, opts core.Options) (SimInfo, error)
	// SolveTiled runs the tile engine on square tiles; worker count and
	// the optional Tracer ride in opts.
	SolveTiled func(tile int, opts core.Options) (string, error)
	// SolveResilient runs the unreliable-memory solver with seeded faults
	// at ratePercent per replica write, and reports the answer plus the
	// number of cells where corruption was detected.
	SolveResilient func(replicas, ratePercent int, seed uint64) (answer string, corrected int, err error)
	// Tune runs the §V-A parameter search.
	Tune func(opts core.Options) (*core.TuneResult, error)
}

func makeInstance[T comparable](p *core.Problem[T], answer func(*table.Grid[T]) string) *Instance {
	inst := &Instance{
		Name:    p.Name,
		Rows:    p.Rows,
		Cols:    p.Cols,
		Pattern: p.Pattern(),
	}
	inst.SolveSeq = func() (string, error) {
		g, err := core.Solve(p)
		if err != nil {
			return "", err
		}
		return answer(g), nil
	}
	inst.SolveParallel = func(opts core.Options) (string, error) {
		g, err := core.SolveParallelOpt(p, opts)
		if err != nil {
			return "", err
		}
		return answer(g), nil
	}
	inst.SolveSim = func(mode string, opts core.Options) (SimInfo, error) {
		var solve func(*core.Problem[T], core.Options) (*core.Result[T], error)
		switch mode {
		case "cpu":
			solve = core.SolveCPUOnly[T]
		case "gpu":
			solve = core.SolveGPUOnly[T]
		case "hetero":
			solve = core.SolveHetero[T]
		default:
			return SimInfo{}, fmt.Errorf("cli: unknown solver mode %q (want cpu, gpu or hetero)", mode)
		}
		r, err := solve(p, opts)
		if err != nil {
			return SimInfo{}, err
		}
		info := SimInfo{
			Time:     r.Time.String(),
			Pattern:  r.Pattern,
			Executed: r.Executed,
			Transfer: r.Transfer,
			TSwitch:  r.TSwitch,
			TShare:   r.TShare,
			Timeline: r.Timeline,
		}
		if r.Grid != nil {
			info.Result = answer(r.Grid)
		}
		return info, nil
	}
	inst.SolveMulti = func(accelNames []string, opts core.Options) (SimInfo, error) {
		accels := make([]core.Accelerator, 0, len(accelNames))
		for _, n := range accelNames {
			a, err := lddp.AcceleratorByName(n)
			if err != nil {
				return SimInfo{}, err
			}
			accels = append(accels, a)
		}
		r, err := core.SolveHeteroMulti(p, opts, accels, nil)
		if err != nil {
			return SimInfo{}, err
		}
		info := SimInfo{
			Time:     r.Timeline.Makespan().String(),
			Pattern:  p.Pattern(),
			Executed: core.Horizontal,
			Transfer: core.TransferNeed(p.Deps),
			Timeline: r.Timeline,
		}
		if r.Grid != nil {
			info.Result = answer(r.Grid)
		}
		return info, nil
	}
	inst.SolveTiled = func(tile int, opts core.Options) (string, error) {
		g, err := core.SolveTiledContext(context.Background(), p, tile, opts)
		if err != nil {
			return "", err
		}
		return answer(g), nil
	}
	inst.SolveResilient = func(replicas, ratePercent int, seed uint64) (string, int, error) {
		rngs := map[int]*workload.RNG{}
		fault := func(replica, i, j int, v T) T {
			r, ok := rngs[replica]
			if !ok {
				r = workload.NewRNG(seed + uint64(replica)*0x9e3779b9)
				rngs[replica] = r
			}
			if r.Intn(100) < ratePercent {
				var zero T
				return zero // corrupt to the zero value
			}
			return v
		}
		g, corrected, err := core.SolveResilient(p, replicas, fault)
		if err != nil {
			return "", 0, err
		}
		return answer(g), corrected, nil
	}
	inst.Tune = func(opts core.Options) (*core.TuneResult, error) {
		return core.Tune(p, opts)
	}
	return inst
}

// ProblemNames lists the problems BuildInstance accepts, sorted.
func ProblemNames() []string {
	names := []string{"levenshtein", "lcs", "needleman-wunsch", "smith-waterman",
		"dtw", "checkerboard", "seamcarve", "dither"}
	sort.Strings(names)
	return names
}

// BuildInstance constructs a named problem at the given size with seeded
// workloads.
func BuildInstance(name string, size int, seed uint64) (*Instance, error) {
	if size < 2 {
		return nil, fmt.Errorf("cli: size %d too small", size)
	}
	switch name {
	case "levenshtein":
		a, b := workload.SimilarStrings(seed, size-1, workload.ASCIIAlphabet, 0.2)
		return makeInstance(problems.Levenshtein(a, b), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("distance=%d", problems.LevenshteinDistance(g, a, b))
		}), nil
	case "lcs":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.3)
		return makeInstance(problems.LCS(a, b), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("lcs_length=%d", problems.LCSLength(g, a, b))
		}), nil
	case "needleman-wunsch":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.2)
		s := problems.DefaultAlignScores()
		return makeInstance(problems.NeedlemanWunsch(a, b, s), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("global_score=%d", problems.GlobalScore(g, a, b))
		}), nil
	case "smith-waterman":
		a, b := workload.SimilarStrings(seed, size-1, workload.DNAAlphabet, 0.25)
		s := problems.DefaultAlignScores()
		return makeInstance(problems.SmithWaterman(a, b, s), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("local_best=%d", problems.LocalBestScore(g))
		}), nil
	case "dtw":
		x := workload.TimeSeries(seed, size-1, -1, 1)
		y := workload.TimeSeries(seed+1, size-1, -1, 1)
		return makeInstance(problems.DTW(x, y), func(g *table.Grid[float64]) string {
			return fmt.Sprintf("dtw_distance=%.4f", problems.DTWDistance(g, x, y))
		}), nil
	case "checkerboard":
		cost := workload.CostGrid(seed, size, size, 100)
		return makeInstance(problems.Checkerboard(cost), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("best_path=%d", problems.CheckerboardBest(g))
		}), nil
	case "seamcarve":
		energy := workload.EnergyGrid(seed, size, size)
		return makeInstance(problems.SeamCarve(energy), func(g *table.Grid[int32]) string {
			return fmt.Sprintf("seam_cost=%d", problems.SeamCost(g))
		}), nil
	case "dither":
		img := workload.GrayImage(seed, size, size)
		return makeInstance(problems.Dither(img), func(g *table.Grid[int32]) string {
			out := problems.DitherOutput(g)
			white := 0
			for _, row := range out {
				for _, v := range row {
					if v == 255 {
						white++
					}
				}
			}
			return fmt.Sprintf("white_pixels=%d/%d", white, size*size)
		}), nil
	default:
		return nil, fmt.Errorf("cli: unknown problem %q (want one of %v)", name, ProblemNames())
	}
}
