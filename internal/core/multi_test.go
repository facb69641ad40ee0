package core

import (
	"strings"
	"testing"

	"repro/internal/hetsim"
	"repro/internal/table"
)

func testAccels() []Accelerator {
	return []Accelerator{
		{Name: "k20", Model: hetsim.HeteroHigh().GPU},
		{Name: "gt650m", Model: hetsim.HeteroLow().GPU},
	}
}

func TestSolveHeteroMultiMatchesSequential(t *testing.T) {
	// Every mask that executes as horizontal: direct, via transpose, via
	// mirror, and via the inverted-L preference.
	masks := []DepMask{
		DepN, DepNW | DepN, DepN | DepNE, DepNW | DepN | DepNE, DepNW | DepNE,
		DepNW,        // inverted-L -> horizontal
		DepNE,        // mInverted-L -> mirror -> horizontal
		DepW,         // vertical -> transpose -> horizontal
		DepW | DepNW, // vertical -> transpose -> horizontal case-1
	}
	for _, m := range masks {
		p := testProblem(m, 24, 60)
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveHeteroMulti(p, Options{TShare: -1, TSwitch: -1}, testAccels(), nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !table.EqualComparable(want, res.Grid) {
			t.Errorf("%s: multi-accelerator solve differs from sequential", m)
		}
		if len(res.Shares) != 3 {
			t.Errorf("%s: %d shares, want 3", m, len(res.Shares))
		}
	}
}

func TestSolveHeteroMultiRejectsNonHorizontal(t *testing.T) {
	for _, m := range []DepMask{DepW | DepN, DepW | DepNE} {
		p := testProblem(m, 10, 10)
		if _, err := SolveHeteroMulti(p, Options{}, testAccels(), nil); err == nil {
			t.Errorf("%s: expected rejection of non-horizontal pattern", m)
		}
	}
}

func TestSolveHeteroMultiShareValidation(t *testing.T) {
	p := testProblem(DepN, 8, 20)
	if _, err := SolveHeteroMulti(p, Options{}, testAccels(), []int{5, 5}); err == nil {
		t.Error("wrong share count should error")
	}
	if _, err := SolveHeteroMulti(p, Options{}, testAccels(), []int{5, 5, 5}); err == nil {
		t.Error("shares not summing to cols should error")
	}
	if _, err := SolveHeteroMulti(p, Options{}, testAccels(), []int{-1, 11, 10}); err == nil {
		t.Error("negative share should error")
	}
	if _, err := SolveHeteroMulti(p, Options{}, nil, nil); err == nil {
		t.Error("no accelerators should error")
	}
}

func TestDefaultMultiShares(t *testing.T) {
	cpu := hetsim.HeteroHigh().CPU
	for _, cols := range []int{1000, 100_000} {
		shares := DefaultMultiShares(cpu, testAccels(), cols)
		if len(shares) != 3 {
			t.Fatalf("got %d shares", len(shares))
		}
		total := 0
		for _, s := range shares {
			total += s
			if s < 0 {
				t.Fatalf("negative share %d", s)
			}
		}
		if total != cols {
			t.Errorf("shares sum to %d, want %d", total, cols)
		}
	}
	// On wide rows the K20's throughput dominates and it gets the largest
	// share; on narrow rows the CPU's cheaper fixed cost wins instead.
	wide := DefaultMultiShares(cpu, testAccels(), 100_000)
	if !(wide[1] > wide[0] && wide[1] > wide[2]) {
		t.Errorf("wide rows: K20 share %d should dominate cpu %d and gt650m %d", wide[1], wide[0], wide[2])
	}
	narrow := DefaultMultiShares(cpu, testAccels(), 1000)
	if narrow[0] <= narrow[1] {
		t.Errorf("narrow rows: CPU share %d should exceed K20 %d (launch latency dominates)", narrow[0], narrow[1])
	}
}

func TestSolveHeteroMultiUsesAllDevices(t *testing.T) {
	p := testProblem(DepNW|DepN, 50, 3000)
	res, err := SolveHeteroMulti(p, Options{SkipCompute: true}, testAccels(), []int{500, 1500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	// Named accelerator streams must each carry kernels.
	var sawK20, saw650 bool
	for _, r := range tl.Records {
		if strings.HasPrefix(r.Label, "k20:") {
			sawK20 = true
		}
		if strings.HasPrefix(r.Label, "gt650m:") {
			saw650 = true
		}
	}
	if !sawK20 || !saw650 {
		t.Errorf("missing accelerator kernels: k20=%v gt650m=%v", sawK20, saw650)
	}
	// Cell accounting: every cell computed exactly once.
	cells := 0
	for _, r := range tl.Records {
		if r.Kind == hetsim.OpCompute {
			cells += r.Cells
		}
	}
	if cells != 50*3000 {
		t.Errorf("computed %d cells, want %d", cells, 50*3000)
	}
	// Timeline names resolve.
	names := map[string]bool{}
	for _, r := range tl.Records {
		names[tl.NameOf(r.Resource)] = true
	}
	if !names["k20"] || !names["gt650m"] {
		t.Errorf("stream names not registered: %v", names)
	}
}

func TestSolveHeteroMultiAccelToAccelStaging(t *testing.T) {
	// With NW deps, the boundary between accelerator 1 and accelerator 2
	// must stage through the host: a d2h followed by an h2d per row.
	p := testProblem(DepNW|DepN, 20, 3000)
	res, err := SolveHeteroMulti(p, Options{SkipCompute: true}, testAccels(), []int{500, 1500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	var staged int
	for _, r := range res.Timeline.Records {
		if strings.HasPrefix(r.Label, "xfer:right:d1:d2h") {
			staged++
		}
	}
	if staged != 20 {
		t.Errorf("accel-to-accel staged transfers = %d, want 20 (one per row)", staged)
	}
}

func TestDefaultMultiSharesDropsWeakDeviceOnNarrowRows(t *testing.T) {
	// Water-filling: at row widths where the strong devices finish before
	// the GT650M's kernel launch would even complete, the weak accelerator
	// gets nothing rather than becoming the bottleneck.
	cpu := hetsim.HeteroHigh().CPU
	shares := DefaultMultiShares(cpu, testAccels(), 3000)
	if shares[2] != 0 {
		t.Errorf("GT650M share = %d on 3000-wide rows, want 0 (launch-bound)", shares[2])
	}
	// On very wide rows it participates.
	wide := DefaultMultiShares(cpu, testAccels(), 500_000)
	if wide[2] == 0 {
		t.Error("GT650M share = 0 on 500k-wide rows, want > 0")
	}
}

func TestSolveHeteroMultiSecondAcceleratorHelps(t *testing.T) {
	// On a wide two-way workload, adding the second accelerator must not
	// slow things down, and should help once rows are wide enough.
	p := testProblem(DepNW|DepN|DepNE, 400, 20000)
	one, err := SolveHeteroMulti(p, Options{SkipCompute: true}, testAccels()[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveHeteroMulti(p, Options{SkipCompute: true}, testAccels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if two.Timeline.Makespan() > one.Timeline.Makespan() {
		t.Errorf("second accelerator slowed the solve: %v -> %v",
			one.Timeline.Makespan(), two.Timeline.Makespan())
	}
}

func TestSolveHeteroMultiExplicitShares(t *testing.T) {
	p := testProblem(DepN, 10, 30)
	want, _ := Solve(p)
	res, err := SolveHeteroMulti(p, Options{}, testAccels(), []int{10, 15, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res.Grid) {
		t.Error("explicit-share solve differs")
	}
	// A zero share for a device is allowed.
	res2, err := SolveHeteroMulti(p, Options{}, testAccels(), []int{0, 30, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, res2.Grid) {
		t.Error("zero-share solve differs")
	}
}
