package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/problems"
	"repro/internal/workload"
)

// RunAblationPipeline regenerates ablation A1: heterogeneous horizontal
// case-1 with the transfer pipeline on (DMA engines overlap kernels) and
// off (synchronous default-stream copies).
func RunAblationPipeline(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	t := Table{
		Title:  "Ablation A1: pipelined vs synchronous one-way transfers (horizontal case-1, Hetero-High)",
		Header: []string{"size", "pipelined", "synchronous", "slowdown"},
	}
	for _, n := range sizes {
		p := Fig9Problem(n)
		on, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1, SkipCompute: true})
		if err != nil {
			return nil, err
		}
		off, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1, SkipCompute: true, DisablePipeline: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), fd(on.Time), fd(off.Time), ratio(off.Time, on.Time),
		})
	}
	return []Table{t}, nil
}

// RunAblationPinned regenerates ablation A2: heterogeneous horizontal
// case-2 (checkerboard) with pinned vs pageable boundary transfers.
func RunAblationPinned(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	t := Table{
		Title:  "Ablation A2: pinned vs pageable two-way boundary transfers (checkerboard, Hetero-High)",
		Header: []string{"size", "pinned", "pageable", "slowdown"},
	}
	for _, n := range sizes {
		p := Fig13Problem(cfg.Seed, n)
		pin, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1, SkipCompute: true})
		if err != nil {
			return nil, err
		}
		page, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1, SkipCompute: true, UsePageable: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), fd(pin.Time), fd(page.Time), ratio(page.Time, pin.Time),
		})
	}
	return []Table{t}, nil
}

// RunAblationCoalesce regenerates ablation A3: GPU-only anti-diagonal
// execution under the coalescing-friendly anti-diagonal-major layout vs a
// naive row-major table.
func RunAblationCoalesce(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	t := Table{
		Title:  "Ablation A3: coalesced (antidiag-major) vs uncoalesced (row-major) GPU layout (Levenshtein, Hetero-High)",
		Header: []string{"size", "coalesced", "row-major", "slowdown"},
	}
	for _, n := range sizes {
		p := Fig10Problem(cfg.Seed, n)
		good, err := core.SolveGPUOnly(p, core.Options{SkipCompute: true})
		if err != nil {
			return nil, err
		}
		bad, err := core.SolveGPUOnly(p, core.Options{SkipCompute: true, Uncoalesced: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), fd(good.Time), fd(bad.Time), ratio(bad.Time, good.Time),
		})
	}
	return []Table{t}, nil
}

// RunAblationChunking regenerates ablation A4: CPU-only execution with the
// chunked (thread-per-block) strategy vs one task per cell (§IV-A).
func RunAblationChunking(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{512, 1024, 2048, 4096})
	t := Table{
		Title:  "Ablation A4: CPU thread-per-chunk vs thread-per-cell (Levenshtein, Hetero-High)",
		Header: []string{"size", "chunked", "thread-per-cell", "slowdown"},
	}
	for _, n := range sizes {
		p := Fig10Problem(cfg.Seed, n)
		chunked, err := core.SolveCPUOnly(p, core.Options{SkipCompute: true})
		if err != nil {
			return nil, err
		}
		percell, err := core.SolveCPUOnly(p, core.Options{SkipCompute: true, CPUThreadPerCell: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), fd(chunked.Time), fd(percell.Time), ratio(percell.Time, chunked.Time),
		})
	}
	return []Table{t}, nil
}

// RunAblationTuning regenerates ablation A5: the autotuner's parameters
// against the model-derived defaults on the Levenshtein workload, for both
// platforms.
func RunAblationTuning(cfg Config) ([]Table, error) {
	n := 4096
	if cfg.Quick {
		n = 256
	}
	a, b := workload.SimilarStrings(cfg.Seed, n-1, workload.ASCIIAlphabet, 0.2)
	p := problems.Levenshtein(a, b)
	t := Table{
		Title:  fmt.Sprintf("Ablation A5: tuned vs heuristic parameters (Levenshtein %dx%d)", n, n),
		Header: []string{"platform", "heuristic t_sw/t_sh", "heuristic time", "tuned t_sw/t_sh", "tuned time", "gain"},
	}
	for _, plat := range hetsim.Platforms() {
		def, err := core.SolveHetero(p, core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true})
		if err != nil {
			return nil, err
		}
		tuned, err := core.Tune(p, core.Options{Platform: plat})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			plat.Name,
			fmt.Sprintf("%d/%d", def.TSwitch, def.TShare), fd(def.Time),
			fmt.Sprintf("%d/%d", tuned.TSwitch, tuned.TShare), fd(tuned.Time),
			ratio(def.Time, tuned.Time),
		})
	}
	return []Table{t}, nil
}

// RunAblationGPUChunking regenerates the GPU half of §IV-A: one thread per
// cell (the paper's choice, "to exploit massively parallel architecture of
// the GPU, creating a large number of light-weight threads is the best
// choice") against threads that serially chunk 8 or 64 cells each, on
// GPU-only anti-diagonal execution.
func RunAblationGPUChunking(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	g := hetsim.HeteroHigh().GPU
	t := Table{
		Title:  "Ablation A6: GPU thread-per-cell vs chunked threads (Levenshtein diagonals, Hetero-High)",
		Header: []string{"size", "thread-per-cell", "chunk=8", "chunk=64", "slowdown(64)"},
	}
	for _, n := range sizes {
		// Sum kernel times over all anti-diagonals of an n x n table.
		var perCell, c8, c64 time.Duration
		for d := 0; d < 2*n-1; d++ {
			w := n - abs(n-1-d)
			perCell += g.KernelDuration(w, true)
			c8 += g.ChunkedKernelDuration(w, 8, true)
			c64 += g.ChunkedKernelDuration(w, 64, true)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n), fd(perCell), fd(c8), fd(c64), ratio(c64, perCell),
		})
	}
	return []Table{t}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
