package core

import (
	"testing"

	"repro/internal/hetsim"
)

// These tests pin the qualitative performance relationships the paper's
// figures report, using the timing model alone (SkipCompute). They are the
// contract the experiment harness relies on; absolute numbers are free to
// drift with recalibration, the orderings are not.

func levenshteinLike(n int) *Problem[int64] {
	return &Problem[int64]{
		Name: "lev", Rows: n, Cols: n, Deps: DepW | DepNW | DepN,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			return min(nb.W, nb.NW, nb.N) + 1
		},
		BytesPerCell: 4,
	}
}

func horizontalCase2(n int) *Problem[int64] {
	return &Problem[int64]{
		Name: "h2", Rows: n, Cols: n, Deps: DepNW | DepN | DepNE,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			return min(nb.NW, nb.N, nb.NE) + 1
		},
		BytesPerCell: 4,
		InputBytes:   n * n * 4,
	}
}

func knightLike(n int) *Problem[int64] {
	return &Problem[int64]{
		Name: "kn", Rows: n, Cols: n, Deps: DepW | DepNW | DepN | DepNE,
		F: func(i, j int, nb Neighbors[int64]) int64 {
			return nb.W + nb.NW + nb.N + nb.NE + 1
		},
		BytesPerCell: 4,
		InputBytes:   n * n,
	}
}

func simTimes(t *testing.T, p *Problem[int64], plat *hetsim.Platform) (cpu, gpu, het int64) {
	t.Helper()
	o := Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true}
	rc, err := SolveCPUOnly(p, o)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := SolveGPUOnly(p, o)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := SolveHetero(p, o)
	if err != nil {
		t.Fatal(err)
	}
	return int64(rc.Time), int64(rg.Time), int64(rh.Time)
}

// Fig 10 shape: for anti-diagonal Levenshtein the heterogeneous framework
// beats the pure GPU at every size (low-work regions cost the GPU dearly),
// and the margin grows with the table.
func TestShapeFig10LevenshteinHeteroBeatsGPU(t *testing.T) {
	for _, plat := range hetsim.Platforms() {
		var prevGap int64 = -1 << 62
		for _, n := range []int{1024, 2048, 4096, 8192} {
			cpu, gpu, het := simTimes(t, levenshteinLike(n), plat)
			if het > gpu {
				t.Errorf("%s n=%d: hetero %d > gpu %d", plat.Name, n, het, gpu)
			}
			// On tables so small that t_switch degenerates to CPU-only, the
			// phase plumbing may cost a fraction of a percent over pure CPU.
			if het > cpu+cpu/100 {
				t.Errorf("%s n=%d: hetero %d > cpu %d", plat.Name, n, het, cpu)
			}
			if n >= 4096 {
				gap := gpu - het
				if gap < prevGap/2 {
					t.Errorf("%s n=%d: gpu-hetero gap shrank sharply: %d after %d", plat.Name, n, gap, prevGap)
				}
				prevGap = gap
			}
		}
	}
}

// Fig 10 shape: the GPU overtakes the multicore CPU as tables grow.
func TestShapeFig10GPUOvertakesCPU(t *testing.T) {
	for _, plat := range hetsim.Platforms() {
		cpuS, gpuS, _ := simTimes(t, levenshteinLike(1024), plat)
		cpuL, gpuL, _ := simTimes(t, levenshteinLike(8192), plat)
		if gpuL >= cpuL {
			t.Errorf("%s: at 8192 gpu %d should beat cpu %d", plat.Name, gpuL, cpuL)
		}
		// Relative GPU advantage must improve with size.
		if float64(gpuL)/float64(cpuL) >= float64(gpuS)/float64(cpuS) {
			t.Errorf("%s: GPU/CPU ratio did not improve with size", plat.Name)
		}
	}
}

// Fig 13 shape: for horizontal case-2 the per-iteration pinned exchanges
// make the framework no better than the GPU on small tables, but work
// partitioning pulls it ahead as tables grow.
func TestShapeFig13CheckerboardCrossover(t *testing.T) {
	plat := hetsim.HeteroHigh()
	_, gpuSmall, hetSmall := simTimes(t, horizontalCase2(1024), plat)
	if hetSmall < gpuSmall*99/100 {
		t.Errorf("small table: hetero %d clearly beats gpu %d; paper expects overheads to dominate", hetSmall, gpuSmall)
	}
	_, gpuLarge, hetLarge := simTimes(t, horizontalCase2(8192), plat)
	if hetLarge >= gpuLarge {
		t.Errorf("large table: hetero %d should beat gpu %d", hetLarge, gpuLarge)
	}
}

// Fig 12 shape: for knight-move dithering the CPU wins small images (the
// framework matches it by degenerating to CPU-only), the GPU improves with
// size, and the framework is strictly best at large sizes.
func TestShapeFig12DitherShapes(t *testing.T) {
	for _, plat := range hetsim.Platforms() {
		cpuS, gpuS, hetS := simTimes(t, knightLike(512), plat)
		if cpuS >= gpuS {
			t.Errorf("%s small: cpu %d should beat gpu %d", plat.Name, cpuS, gpuS)
		}
		if hetS > cpuS*101/100 {
			t.Errorf("%s small: hetero %d should track cpu %d", plat.Name, hetS, cpuS)
		}
		cpuL, gpuL, hetL := simTimes(t, knightLike(4096), plat)
		if hetL >= cpuL || hetL >= gpuL {
			t.Errorf("%s large: hetero %d should beat cpu %d and gpu %d", plat.Name, hetL, cpuL, gpuL)
		}
	}
}

// Fig 8 shape: executing an {NW} problem via the genuine inverted-L
// strategy is slower than via horizontal case-1, on CPU-only, GPU-only and
// heterogeneous execution alike — uniform fronts and a coalescing-friendly
// row layout win (§V-B).
func TestShapeFig8InvertedLSlowerThanHorizontal(t *testing.T) {
	p := &Problem[int64]{
		Name: "il", Rows: 4096, Cols: 4096, Deps: DepNW,
		F:            func(i, j int, nb Neighbors[int64]) int64 { return max(nb.NW, 0) + 1 },
		BytesPerCell: 4,
	}
	plat := hetsim.HeteroHigh()
	for name, solver := range map[string]func(*Problem[int64], Options) (*Result[int64], error){
		"cpu": SolveCPUOnly[int64], "gpu": SolveGPUOnly[int64], "hetero": SolveHetero[int64],
	} {
		// The inverted-L arm reproduces the paper's implementation: a naive
		// row-major table, under which L-shaped fronts are strided on the
		// CPU and uncoalesced on the GPU — which is precisely why §V-B
		// prefers horizontal case-1 with its naturally coalescing-friendly
		// row layout.
		oi := Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true,
			PreferInvertedL: true, Uncoalesced: true}
		oh := Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true}
		ri, err := solver(p, oi)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := solver(p, oh)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Time <= rh.Time {
			t.Errorf("%s: inverted-L %v should be slower than horizontal %v", name, ri.Time, rh.Time)
		}
	}
}

// §IV-C ablation: disabling the transfer pipeline cannot make anything
// faster, and must hurt one-way horizontal sharing.
func TestShapePipelineAblation(t *testing.T) {
	p := &Problem[int64]{
		Name: "h1", Rows: 4096, Cols: 4096, Deps: DepNW | DepN,
		F:            func(i, j int, nb Neighbors[int64]) int64 { return min(nb.NW, nb.N) + 1 },
		BytesPerCell: 4,
	}
	base := Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	on, err := SolveHetero(p, base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.DisablePipeline = true
	offRes, err := SolveHetero(p, off)
	if err != nil {
		t.Fatal(err)
	}
	if offRes.Time <= on.Time {
		t.Errorf("unpipelined %v should be slower than pipelined %v", offRes.Time, on.Time)
	}
}

// §IV-C case-2 ablation: pageable boundary transfers slow two-way patterns.
func TestShapePinnedAblation(t *testing.T) {
	p := horizontalCase2(4096)
	base := Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	pinned, err := SolveHetero(p, base)
	if err != nil {
		t.Fatal(err)
	}
	pageable := base
	pageable.UsePageable = true
	pg, err := SolveHetero(p, pageable)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Time < pinned.Time {
		t.Errorf("pageable %v should not beat pinned %v", pg.Time, pinned.Time)
	}
}

// §IV-B ablation: a mismatched (row-major) layout slows the GPU on
// anti-diagonal problems via uncoalesced access.
func TestShapeCoalescingAblation(t *testing.T) {
	p := levenshteinLike(2048)
	base := Options{TSwitch: 0, TShare: 0, SkipCompute: true}
	coalesced, err := SolveGPUOnly(p, base)
	if err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Uncoalesced = true
	uncoalesced, err := SolveGPUOnly(p, bad)
	if err != nil {
		t.Fatal(err)
	}
	if uncoalesced.Time <= coalesced.Time {
		t.Errorf("uncoalesced %v should be slower than coalesced %v", uncoalesced.Time, coalesced.Time)
	}
}

// §IV-A ablation: thread-per-cell CPU execution loses to chunking.
func TestShapeThreadPerCellAblation(t *testing.T) {
	p := levenshteinLike(1024)
	base := Options{TSwitch: -1, TShare: -1, SkipCompute: true}
	chunked, err := SolveCPUOnly(p, base)
	if err != nil {
		t.Fatal(err)
	}
	tpc := base
	tpc.CPUThreadPerCell = true
	perCell, err := SolveCPUOnly(p, tpc)
	if err != nil {
		t.Fatal(err)
	}
	if perCell.Time <= chunked.Time {
		t.Errorf("thread-per-cell %v should be slower than chunked %v", perCell.Time, chunked.Time)
	}
}
