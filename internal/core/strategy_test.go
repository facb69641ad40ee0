package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hetsim"
	"repro/internal/table"
)

// Structural tests of the heterogeneous strategies: the timelines they
// build must have the op mix the paper's phase diagrams prescribe.

func countOps(tl hetsim.Timeline, prefix string) int {
	n := 0
	for _, r := range tl.Records {
		if strings.HasPrefix(r.Label, prefix) {
			n++
		}
	}
	return n
}

func TestAntiDiagonalPhaseStructure(t *testing.T) {
	p := testProblem(DepW|DepN, 60, 60) // 119 fronts
	res, err := SolveHetero(p, Options{TSwitch: 20, TShare: 10})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	// Phases 1 and 3: exactly tSwitch CPU-only regions each.
	if got := countOps(tl, "cpu:p1"); got != 20 {
		t.Errorf("phase-1 CPU regions = %d, want 20", got)
	}
	if got := countOps(tl, "cpu:p3"); got != 20 {
		t.Errorf("phase-3 CPU regions = %d, want 20", got)
	}
	// Phase 2: one kernel per front (the CPU band vanishes once diagonals
	// leave the top rows, but the GPU side persists).
	if got := countOps(tl, "gpu:p2"); got != 119-40 {
		t.Errorf("phase-2 kernels = %d, want %d", got, 119-40)
	}
	// Exactly one bulk upstream sync and one bulk downstream sync.
	if got := countOps(tl, "h2d:phase1-sync"); got != 1 {
		t.Errorf("phase1-sync ops = %d, want 1", got)
	}
	if got := countOps(tl, "d2h:phase2-sync"); got != 1 {
		t.Errorf("phase2-sync ops = %d, want 1", got)
	}
	// Anti-diagonal is one-way: no per-iteration d2h boundary ops.
	if got := countOps(tl, "d2h:boundary"); got != 0 {
		t.Errorf("anti-diagonal produced %d d2h boundary transfers, want 0", got)
	}
}

func TestKnightPhaseStructure(t *testing.T) {
	p := testProblem(DepW|DepNE, 40, 40) // knight: 2*39+40 = 118 fronts
	res, err := SolveHetero(p, Options{TSwitch: 30, TShare: 8})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if got := countOps(tl, "cpu:p1"); got != 30 {
		t.Errorf("phase-1 CPU regions = %d, want 30", got)
	}
	if got := countOps(tl, "cpu:p3"); got != 30 {
		t.Errorf("phase-3 CPU regions = %d, want 30", got)
	}
	// Knight-move is two-way: both boundary directions appear, equally.
	up, down := countOps(tl, "h2d:boundary"), countOps(tl, "d2h:boundary")
	if up == 0 || up != down {
		t.Errorf("knight boundary transfers = %d up / %d down, want equal and > 0", up, down)
	}
}

func TestInvertedLPhaseStructure(t *testing.T) {
	p := testProblem(DepNW, 50, 50)
	res, err := SolveHetero(p, Options{TSwitch: 15, TShare: 10, PreferInvertedL: true})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	// Phase 1 covers fronts-15 iterations with both devices, phase 2 the
	// CPU-only tail.
	if got := countOps(tl, "cpu:p2"); got != 15 {
		t.Errorf("phase-2 CPU regions = %d, want 15", got)
	}
	if got := countOps(tl, "gpu:p1"); got != 50-15 {
		t.Errorf("phase-1 kernels = %d, want %d", got, 35)
	}
	if got := countOps(tl, "d2h:phase1-sync"); got != 1 {
		t.Errorf("phase1-sync ops = %d, want 1", got)
	}
}

func TestHorizontalSinglePhase(t *testing.T) {
	p := testProblem(DepNW|DepN, 30, 50)
	res, err := SolveHetero(p, Options{TShare: 12, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if got := countOps(tl, "cpu:p1"); got != 30 {
		t.Errorf("CPU regions = %d, want 30 (one per row)", got)
	}
	if got := countOps(tl, "gpu:p1"); got != 30 {
		t.Errorf("kernels = %d, want 30 (one per row)", got)
	}
	if got := countOps(tl, "cpu:p2") + countOps(tl, "cpu:p3"); got != 0 {
		t.Errorf("horizontal has extra phases: %d ops", got)
	}
}

// Pipelining must actually overlap: with DMA engines, at least one boundary
// transfer runs concurrently with a compute op; with DisablePipeline all
// transfers serialize on the GPU queue.
func TestPipelineOverlapObservable(t *testing.T) {
	p := testProblem(DepNW|DepN, 200, 4000)
	res, err := SolveHetero(p, Options{TShare: 500, TSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	overlapped := false
	var computes, transfers []hetsim.OpRecord
	for _, r := range tl.Records {
		switch r.Kind {
		case hetsim.OpCompute:
			computes = append(computes, r)
		case hetsim.OpTransfer:
			transfers = append(transfers, r)
		}
	}
	for _, x := range transfers {
		for _, c := range computes {
			if x.Start < c.End && c.Start < x.End {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Error("no transfer overlapped any compute; pipelining is not happening")
	}

	off, err := SolveHetero(p, Options{TShare: 500, TSwitch: 0, DisablePipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range off.Timeline.Records {
		if r.Kind == hetsim.OpTransfer && r.Resource != hetsim.ResGPU {
			t.Errorf("unpipelined transfer %q ran on %s, want gpu queue", r.Label, r.Resource)
		}
	}
}

// Devices never compute the same cell twice and cover the table exactly.
func TestHeteroCellAccountingProperty(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c, tsw, tsh uint8) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%40) + 2
		cols := int(c%40) + 2
		p := testProblem(m, rows, cols)
		res, err := SolveHetero(p, Options{
			TSwitch:     int(tsw % 30),
			TShare:      int(tsh % 30),
			SkipCompute: true,
		})
		if err != nil {
			return false
		}
		st := res.Timeline.Summarize()
		return st.CPUCells+st.GPUCells == rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Fuzz across masks, shapes and parameters: the heterogeneous solver must
// agree with the sequential reference cell-for-cell.
func TestHeteroEquivalenceFuzz(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c, tsw, tsh uint8, preferIL bool) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%30) + 1
		cols := int(c%30) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			return false
		}
		res, err := SolveHetero(p, Options{
			TSwitch:         int(tsw % 25),
			TShare:          int(tsh % 25),
			PreferInvertedL: preferIL,
		})
		if err != nil {
			return false
		}
		return table.EqualComparable(want, res.Grid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// A *tuned* framework never loses meaningfully to either single-device
// baseline: the §V-A sweep reaches the degenerate configurations
// (t_share = width keeps everything on the CPU, t_share = 0 everything on
// the GPU), so the tuner's optimum is at most the better baseline plus
// phase-transition slack.
func TestTunedHeteroNeverCatastrophic(t *testing.T) {
	for _, m := range []DepMask{DepW | DepN, DepNW | DepN, DepNW | DepN | DepNE, DepW | DepNE} {
		p := testProblem(m, 600, 600)
		o := Options{SkipCompute: true}
		tuned, err := Tune(p, o)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := SolveCPUOnly(p, Options{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := SolveGPUOnly(p, Options{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		best := min(cpu.Time, gpu.Time)
		if tuned.Time > best+best/20 {
			t.Errorf("%s: tuned hetero %v exceeds best baseline %v by >5%%", m, tuned.Time, best)
		}
	}
}
