package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/problems"
	"repro/internal/workload"
)

// RunFig7 regenerates Figure 7: heterogeneous time against t_switch for
// the longest-common-subsequence problem on a 4k x 4k table with t_share
// fixed to 0. The curve is concave-up; the printed minimum is the t_switch
// the tuner selects.
func RunFig7(cfg Config) ([]Table, error) {
	// The interior minimum only exists once fronts grow past the GPU
	// break-even width (~1.4k cells on Hetero-High); below that the whole
	// table belongs on the CPU and the curve is monotone. Quick mode
	// therefore still uses a 2k table — the sweep runs on the timing model
	// and stays fast.
	n := 4096
	if cfg.Quick {
		n = 2048
	}
	a, b := workload.SimilarStrings(cfg.Seed, n-1, workload.DNAAlphabet, 0.3)
	p := problems.LCS(a, b)
	res, err := core.Tune(p, core.Options{Platform: hetsim.HeteroHigh()})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 7: LCS %dx%d heterogeneous time vs t_switch (t_share=0)", n, n),
		Header: []string{"t_switch", "time", "minimum"},
	}
	for _, pt := range res.SwitchCurve {
		mark := ""
		if pt.Value == res.TSwitch {
			mark = "<-- optimal"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", pt.Value), fd(pt.Time), mark})
	}
	return []Table{t}, nil
}

// Fig8Measure runs the Figure 8 comparison at one size: the paper's
// f(i,j) = max(cell[i][j], f(i-1,j-1)) + c recurrence, executed through
// the genuine inverted-L strategy (naive row-major table, as implemented
// in the paper) and through horizontal case-1 (its coalescing-friendly
// default), on CPU-only and GPU-only execution.
func Fig8Measure(n int) (il, h1 map[string]TriTimes, err error) {
	p := &core.Problem[int32]{
		Name: "fig8", Rows: n, Cols: n, Deps: core.DepNW,
		F: func(i, j int, nb core.Neighbors[int32]) int32 {
			base := int32((i*7 + j*3) % 64)
			return max(base, nb.NW) + 1
		},
		BytesPerCell: 4,
	}
	il = map[string]TriTimes{}
	h1 = map[string]TriTimes{}
	for _, plat := range hetsim.Platforms() {
		oIL := core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true,
			PreferInvertedL: true, Uncoalesced: true}
		oH := core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true}
		cIL, err := core.SolveCPUOnly(p, oIL)
		if err != nil {
			return nil, nil, err
		}
		gIL, err := core.SolveGPUOnly(p, oIL)
		if err != nil {
			return nil, nil, err
		}
		cH, err := core.SolveCPUOnly(p, oH)
		if err != nil {
			return nil, nil, err
		}
		gH, err := core.SolveGPUOnly(p, oH)
		if err != nil {
			return nil, nil, err
		}
		il[plat.Name] = TriTimes{Size: n, CPU: cIL.Time, GPU: gIL.Time}
		h1[plat.Name] = TriTimes{Size: n, CPU: cH.Time, GPU: gH.Time}
	}
	return il, h1, nil
}

// RunFig8 regenerates Figure 8: inverted-L vs horizontal case-1 on CPU and
// GPU across sizes.
func RunFig8(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	var tables []Table
	for _, plat := range hetsim.Platforms() {
		t := Table{
			Title:  "Figure 8: inverted-L (iL) vs horizontal case-1 (H1) — " + plat.Name,
			Header: []string{"size", "cpu iL", "cpu H1", "gpu iL", "gpu H1", "iL/H1 (gpu)"},
		}
		for _, n := range sizes {
			il, h1, err := Fig8Measure(n)
			if err != nil {
				return nil, err
			}
			a, b := il[plat.Name], h1[plat.Name]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dx%d", n, n),
				fd(a.CPU), fd(b.CPU), fd(a.GPU), fd(b.GPU),
				ratio(a.GPU, b.GPU),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9Problem builds the horizontal case-1 workload of Figure 9:
// f(i,j) = min(f(i-1,j-1), f(i-1,j)) + c.
func Fig9Problem(n int) *core.Problem[int32] {
	return &core.Problem[int32]{
		Name: "fig9", Rows: n, Cols: n, Deps: core.DepNW | core.DepN,
		F: func(i, j int, nb core.Neighbors[int32]) int32 {
			if i == 0 {
				return int32(j % 17)
			}
			return min(nb.NW, nb.N) + 1
		},
		BytesPerCell: 4,
	}
}

// RunFig9 regenerates Figure 9: CPU/GPU/Framework times of a horizontal
// case-1 problem across sizes on both platforms.
func RunFig9(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	series, err := CaseStudySeries(sizes, Fig9Problem)
	if err != nil {
		return nil, err
	}
	return caseStudyTables("Figure 9: horizontal case-1", series), nil
}

// Fig10Problem builds the Levenshtein workload of Figure 10 at one size:
// two similar strings of length n-1 (table size n x n).
func Fig10Problem(seed uint64, n int) *core.Problem[int32] {
	a, b := workload.SimilarStrings(seed, n-1, workload.ASCIIAlphabet, 0.2)
	return problems.Levenshtein(a, b)
}

// RunFig10 regenerates Figure 10: Levenshtein CPU/GPU/Framework times
// across sizes on both platforms, with the smallest instance solved for
// real and validated against the reference implementation.
func RunFig10(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	if err := validateFig10(cfg, sizes[0]); err != nil {
		return nil, err
	}
	series, err := CaseStudySeries(sizes, func(n int) *core.Problem[int32] {
		return Fig10Problem(cfg.Seed, n)
	})
	if err != nil {
		return nil, err
	}
	return caseStudyTables("Figure 10: Levenshtein distance", series), nil
}

func validateFig10(cfg Config, n int) error {
	a, b := workload.SimilarStrings(cfg.Seed, n-1, workload.ASCIIAlphabet, 0.2)
	res, err := core.SolveHetero(problems.Levenshtein(a, b), core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		return err
	}
	got := problems.LevenshteinDistance(res.Grid, a, b)
	want := problems.LevenshteinRef(a, b)
	if got != want {
		return fmt.Errorf("fig10 validation: framework distance %d != reference %d", got, want)
	}
	return nil
}

// Fig12Problem builds the dithering workload of Figure 12 at one size.
func Fig12Problem(seed uint64, n int) *core.Problem[int32] {
	return problems.Dither(workload.GrayImage(seed, n, n))
}

// RunFig12 regenerates Figure 12: Floyd-Steinberg dithering CPU/GPU/
// Framework times across image sizes on both platforms, validating the
// smallest image against the scatter reference.
func RunFig12(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{512, 1024, 2048, 4096})
	if err := validateFig12(cfg, sizes[0]); err != nil {
		return nil, err
	}
	series, err := CaseStudySeries(sizes, func(n int) *core.Problem[int32] {
		return Fig12Problem(cfg.Seed, n)
	})
	if err != nil {
		return nil, err
	}
	return caseStudyTables("Figure 12: Floyd-Steinberg dithering", series), nil
}

func validateFig12(cfg Config, n int) error {
	img := workload.GrayImage(cfg.Seed, n, n)
	res, err := core.SolveHetero(problems.Dither(img), core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		return err
	}
	wantOut, _ := problems.DitherRef(img)
	got := problems.DitherOutput(res.Grid)
	for i := range wantOut {
		for j := range wantOut[i] {
			if got[i][j] != wantOut[i][j] {
				return fmt.Errorf("fig12 validation: pixel (%d,%d) = %d, reference %d", i, j, got[i][j], wantOut[i][j])
			}
		}
	}
	return nil
}

// Fig13Problem builds the checkerboard workload of Figure 13 at one size.
func Fig13Problem(seed uint64, n int) *core.Problem[int32] {
	return problems.Checkerboard(workload.CostGrid(seed, n, n, 100))
}

// RunFig13 regenerates Figure 13: checkerboard CPU/GPU/Framework times
// across sizes on both platforms, validating the smallest instance.
func RunFig13(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	if err := validateFig13(cfg, sizes[0]); err != nil {
		return nil, err
	}
	series, err := CaseStudySeries(sizes, func(n int) *core.Problem[int32] {
		return Fig13Problem(cfg.Seed, n)
	})
	if err != nil {
		return nil, err
	}
	return caseStudyTables("Figure 13: checkerboard problem", series), nil
}

func validateFig13(cfg Config, n int) error {
	cost := workload.CostGrid(cfg.Seed, n, n, 100)
	res, err := core.SolveHetero(problems.Checkerboard(cost), core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		return err
	}
	got := problems.CheckerboardBest(res.Grid)
	_, want := problems.CheckerboardRef(cost)
	if got != want {
		return fmt.Errorf("fig13 validation: framework best %d != reference %d", got, want)
	}
	return nil
}
