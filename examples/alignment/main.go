// Alignment: the bioinformatics workloads that motivate LDDP frameworks —
// edit distance, global alignment (Needleman-Wunsch) and local alignment
// (Smith-Waterman) over DNA sequences — solved through the public lddp
// facade on both of the paper's platforms, with the simulated schedule's
// phases showing how the framework divides the work.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/problems"
	"repro/internal/workload"
	"repro/lddp"
)

func main() {
	ctx := context.Background()

	const n = 2000
	// Two sequences differing in ~15% of positions: a realistic pair of
	// homologous reads.
	a, b := workload.SimilarStrings(2024, n, workload.DNAAlphabet, 0.15)
	fmt.Printf("aligning two DNA sequences of length %d (%.0f%% mutated)\n\n", n, 15.0)

	scores := problems.DefaultAlignScores()

	// Edit distance (anti-diagonal pattern).
	lev := problems.Levenshtein(a, b)
	levRes, err := lddp.Solve(ctx, lev, lddp.WithStrategy(lddp.Hetero))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("levenshtein distance  = %d   [pattern %s, %s]\n",
		problems.LevenshteinDistance(levRes.Grid, a, b), levRes.Pattern, levRes.SimTime)

	// Global alignment score.
	nw := problems.NeedlemanWunsch(a, b, scores)
	nwRes, err := lddp.Solve(ctx, nw, lddp.WithStrategy(lddp.Hetero))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global align score    = %d  [pattern %s, %s]\n",
		problems.GlobalScore(nwRes.Grid, a, b), nwRes.Pattern, nwRes.SimTime)

	// Local alignment score.
	sw := problems.SmithWaterman(a, b, scores)
	swRes, err := lddp.Solve(ctx, sw, lddp.WithStrategy(lddp.Hetero))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local align score     = %d  [pattern %s, %s]\n\n",
		problems.LocalBestScore(swRes.Grid), swRes.Pattern, swRes.SimTime)

	// How the framework divides this work on each platform, read from
	// the simulated schedule.
	fmt.Println("heterogeneous execution profile (Levenshtein):")
	for _, platform := range []string{"Hetero-High", "Hetero-Low"} {
		res, err := lddp.Solve(ctx, lev,
			lddp.WithStrategy(lddp.Hetero),
			lddp.WithPlatform(platform))
		if err != nil {
			log.Fatal(err)
		}
		st := res.Timeline.Summarize()
		fmt.Printf("  %-12s t_switch=%-5d t_share=%-5d cpuCells=%-8d gpuCells=%-8d %s\n",
			platform, res.TSwitch, res.TShare, st.CPUCells, st.GPUCells, res.SimTime)
		for _, ph := range res.Timeline.Phases() {
			fmt.Printf("    phase %-4s wall=%dns\n", ph.Name, ph.Wall.Nanoseconds())
		}
	}
}
