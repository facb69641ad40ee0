package repro

// One benchmark per table, figure, and ablation of the paper, each wrapping
// the corresponding experiment driver (internal/experiments), plus
// micro-benchmarks of the load-bearing primitives. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the full driver — workload generation,
// validation of the smallest instance against a reference implementation,
// and the timing sweep over all sizes and both platforms — so one iteration
// is one complete regeneration of that figure's data.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hetsim"
	"repro/internal/problems"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table I: classification of all 15 contributing sets.
func BenchmarkTable1Classify(b *testing.B) { benchExperiment(b, "table1") }

// Table II: transfer needs per pattern.
func BenchmarkTable2Transfer(b *testing.B) { benchExperiment(b, "table2") }

// Figure 7: t_switch sweep for LCS 4k x 4k at t_share = 0.
func BenchmarkFig7TSwitchSweep(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: inverted-L vs horizontal case-1 on CPU and GPU.
func BenchmarkFig8ILvsH1(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: horizontal case-1 CPU/GPU/Framework sweep on both platforms.
func BenchmarkFig9Horizontal(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10: Levenshtein CPU/GPU/Framework sweep on both platforms.
func BenchmarkFig10Levenshtein(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 12: Floyd-Steinberg dithering sweep on both platforms.
func BenchmarkFig12Dither(b *testing.B) { benchExperiment(b, "fig12") }

// Figure 13: checkerboard sweep on both platforms.
func BenchmarkFig13Checkerboard(b *testing.B) { benchExperiment(b, "fig13") }

// Ablation A1: pipelined vs synchronous one-way transfers.
func BenchmarkAblationPipeline(b *testing.B) { benchExperiment(b, "ablation-pipeline") }

// Ablation A2: pinned vs pageable two-way transfers.
func BenchmarkAblationPinned(b *testing.B) { benchExperiment(b, "ablation-pinned") }

// Ablation A3: coalesced vs row-major GPU layout.
func BenchmarkAblationCoalescing(b *testing.B) { benchExperiment(b, "ablation-coalesce") }

// Ablation A4: CPU chunking vs thread-per-cell.
func BenchmarkAblationChunking(b *testing.B) { benchExperiment(b, "ablation-chunking") }

// Ablation A5: autotuned vs heuristic parameters.
func BenchmarkAblationTuning(b *testing.B) { benchExperiment(b, "ablation-tuning") }

// ---- Micro-benchmarks of the primitives ----

// Real (not simulated) sequential DP throughput on Levenshtein.
func BenchmarkSolveSequentialLevenshtein1k(b *testing.B) {
	a, s := workload.SimilarStrings(1, 1023, workload.ASCIIAlphabet, 0.2)
	p := problems.Levenshtein(a, s)
	cells := float64(p.Rows * p.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// Real goroutine wavefront solver on the same workload.
func BenchmarkSolveParallelLevenshtein1k(b *testing.B) {
	a, s := workload.SimilarStrings(1, 1023, workload.ASCIIAlphabet, 0.2)
	p := problems.Levenshtein(a, s)
	cells := float64(p.Rows * p.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveParallel(p, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// Full heterogeneous solve (real values + simulated timeline) on dithering.
func BenchmarkSolveHeteroDither512(b *testing.B) {
	img := workload.GrayImage(3, 512, 512)
	p := problems.Dither(img)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveHetero(p, core.Options{TSwitch: -1, TShare: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Timing-model-only heterogeneous solve: the cost of the simulator alone.
func BenchmarkSolveHeteroTimingOnlyLevenshtein4k(b *testing.B) {
	p := experiments.Fig10Problem(1, 4096)
	opts := core.Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveHetero(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Simulator op submission throughput.
func BenchmarkSimSubmit(b *testing.B) {
	s := hetsim.NewSim(hetsim.HeteroHigh())
	op := hetsim.Op{Resource: hetsim.ResGPU, Duration: 1000, Label: "k"}
	b.ResetTimer()
	prev := hetsim.NoOp
	for i := 0; i < b.N; i++ {
		prev = s.Submit(op, prev)
	}
}

// The autotuner end to end on a mid-size anti-diagonal problem.
func BenchmarkTuneLevenshtein2k(b *testing.B) {
	p := experiments.Fig10Problem(1, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Tune(p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: K20 vs Xeon Phi (the paper's future-work question).
func BenchmarkExtPhi(b *testing.B) { benchExperiment(b, "ext-phi") }

// The tiled cache-efficient multicore baseline across tile sizes, solving
// for real (not simulated): the ablation for the CMP-style CPU algorithms
// the paper cites as related work.
func BenchmarkSolveTiledLevenshtein1k(b *testing.B) {
	a, s := workload.SimilarStrings(1, 1023, workload.ASCIIAlphabet, 0.2)
	p := problems.Levenshtein(a, s)
	for _, tile := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveTiled(p, tile, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Affine-gap (Gotoh) alignment: the multi-state cell type end to end.
func BenchmarkAffineAlign512(b *testing.B) {
	a, s := workload.SimilarStrings(5, 511, workload.DNAAlphabet, 0.2)
	p := problems.AffineAlign(a, s, problems.DefaultAffineScores())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Traceback cost on a solved table.
func BenchmarkLevenshteinScript4k(b *testing.B) {
	a, s := workload.SimilarStrings(9, 4095, workload.ASCIIAlphabet, 0.2)
	g, err := core.Solve(problems.Levenshtein(a, s))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := problems.LevenshteinScript(g, a, s)
		if len(ops) == 0 {
			b.Fatal("empty script")
		}
	}
}

// Extension: multi-accelerator horizontal execution.
func BenchmarkExtMulti(b *testing.B) { benchExperiment(b, "ext-multi") }

// Extension: 3-D LDDP over anti-diagonal planes.
func BenchmarkExt3D(b *testing.B) { benchExperiment(b, "ext-3d") }

// Extension: calibration sensitivity sweep.
func BenchmarkExtSensitivity(b *testing.B) { benchExperiment(b, "ext-sensitivity") }

// Extension: power-law scaling fits.
func BenchmarkExtScaling(b *testing.B) { benchExperiment(b, "ext-scaling") }

// Extension: energy accounting.
func BenchmarkExtEnergy(b *testing.B) { benchExperiment(b, "ext-energy") }

// Ablation A6: GPU threading strategies.
func BenchmarkAblationGPUChunking(b *testing.B) { benchExperiment(b, "ablation-gpu-chunking") }

// Extension: modern-hardware what-if.
func BenchmarkExtModern(b *testing.B) { benchExperiment(b, "ext-modern") }

// Extension: critical-path attribution.
func BenchmarkExtBottleneck(b *testing.B) { benchExperiment(b, "ext-bottleneck") }

// Native executor family (-bench=NativePool): the dependency-driven tile
// engine behind SolveParallel against the level-synchronous pool. Run with
// -benchmem: the Sim alloc counts are part of the recorded evidence
// (BENCH_native.json).

// The tile engine at its default shape on the 4k anti-diagonal case study.
func BenchmarkNativePoolLevenshtein4k(b *testing.B) {
	p := experiments.Fig10Problem(1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveParallel(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// All 15 masks at 256x256 and 1024x1024 through the level-synchronous
// pool (SolvePool) and the tile engine (SolveParallel), on lddpserve's
// kernel, which does the same work per cell under every mask. The
// tiles/pool ratio per mask is the sweep behind the tile-shape rule
// (DESIGN.md §15); run it with -cpu 2 for the two-worker figures.
func BenchmarkNativePoolMasks(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, m := range core.AllDepMasks() {
			p := server.ServeProblem(m, n, n)
			b.Run(fmt.Sprintf("%d/%s/pool", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.SolvePool(context.Background(), p, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%d/%s/tiles", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveParallel(p, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The six masks that read NE with W or NW against their NE-free siblings
// ({W,NE} against {W}, and so on), at 1024x1024 on lddpserve's kernel with
// two workers. Each iteration solves both tables back to back, alternating
// which goes first, so host drift hits both sides of a pair alike; the
// reported ne/sibling is the median of the per-iteration time ratios.
// `make bench-masks` runs it at -cpu 2 and gates every ratio.
func BenchmarkNativePoolMaskPairs(b *testing.B) {
	for _, m := range core.AllDepMasks() {
		if !m.Has(core.DepNE) || m&(core.DepW|core.DepNW) == 0 {
			continue
		}
		pair := [2]*core.Problem[int64]{server.ServeProblem(m, 1024, 1024), server.ServeProblem(m&^core.DepNE, 1024, 1024)}
		b.Run(m.String(), func(b *testing.B) {
			ratios := make([]float64, b.N)
			for i := range ratios {
				var took [2]time.Duration
				for k := range 2 {
					side := (i + k) % 2
					t0 := time.Now()
					if _, err := core.SolveParallel(pair[side], 2); err != nil {
						b.Fatal(err)
					}
					took[side] = time.Since(t0)
				}
				ratios[i] = took[0].Seconds() / took[1].Seconds()
			}
			slices.Sort(ratios)
			n := len(ratios)
			b.ReportMetric((ratios[(n-1)/2]+ratios[n/2])/2, "ne/sibling")
		})
	}
}

// Simulated hetero path at 4k: the lazy-label fix means the per-op
// fmt.Sprintf and dep-slice allocations are gone; allocs/op here is the
// headline number for that satellite.
func BenchmarkNativePoolSimPath4k(b *testing.B) {
	p := experiments.Fig10Problem(1, 4096)
	opts := core.Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveHetero(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Tracing overhead: the same tile-engine workload untraced (the
// one-nil-check fast path the ±2% acceptance bound guards) vs recording
// into the per-worker rings. Compare the off case against
// BenchmarkNativePoolLevenshtein4k for the disabled-tracer cost.
func BenchmarkNativePoolTraceLevenshtein4k(b *testing.B) {
	p := experiments.Fig10Problem(1, 4096)
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveParallelOpt(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder(0)
			if _, err := core.SolveParallelOpt(p, core.Options{Tracer: rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Shared-scheduler multi-solve throughput: one batch iteration is 16
// concurrent 1024x1024 anti-diagonal solves submitted to one shared
// scheduler, versus the same 16 solves as back-to-back level-synchronous
// pool runs (what a service without the scheduler would do). Run both at the
// same GOMAXPROCS (use -cpu) to compare aggregate throughput; the
// recorded numbers live in EXPERIMENTS.md. Worker counts are pinned equal
// on both sides so the comparison isolates the scheduling structure, not
// the configuration.
func BenchmarkSchedulerBatch16x1024(b *testing.B) {
	const (
		batch = 16
		size  = 1024
	)
	workers := runtime.GOMAXPROCS(0)
	problem := func(k int) *core.Problem[int64] {
		return &core.Problem[int64]{
			Name: fmt.Sprintf("batch-%d", k),
			Rows: size, Cols: size, Deps: core.DepW | core.DepN,
			F: func(i, j int, nb core.Neighbors[int64]) int64 {
				return (nb.W*2 + nb.N + int64(i*31+j*17)) % 1_000_003
			},
			Boundary:     func(i, j int) int64 { return int64(i + 2*j) },
			BytesPerCell: 8,
		}
	}
	b.Run("scheduler", func(b *testing.B) {
		s, err := sched.New(sched.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(batch) * size * size * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, batch)
			for k := 0; k < batch; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					_, errs[k] = sched.Solve(context.Background(), s, problem(k), sched.SubmitOptions{})
				}(k)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		opts := core.Options{NativeWorkers: workers}
		b.SetBytes(int64(batch) * size * size * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch; k++ {
				if _, err := core.SolvePool(context.Background(), problem(k), opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
