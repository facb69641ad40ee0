package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	return c
}

// Every registered experiment must run and produce at least one non-empty
// table in quick mode.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
					t.Errorf("%s: degenerate table %+v", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tb.Header))
					}
				}
			}
		})
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Description == "" {
			t.Errorf("experiment %q incompletely registered", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil || e.ID != "fig10" {
		t.Errorf("ByID(fig10) = %v, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestTable1Content(t *testing.T) {
	tables, err := RunTable1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 15 {
		t.Fatalf("Table I has %d rows, want 15", len(tb.Rows))
	}
	// Spot-check the paper's rows: {W,N} -> Anti-diagonal, {W,NE} -> Knight.
	var sawAntiDiag, sawKnight bool
	for _, row := range tb.Rows {
		if row[0] == "Y" && row[1] == "N" && row[2] == "Y" && row[3] == "N" {
			sawAntiDiag = row[4] == "Anti-diagonal"
		}
		if row[0] == "Y" && row[1] == "N" && row[2] == "N" && row[3] == "Y" {
			sawKnight = row[4] == "Knight-Move"
		}
	}
	if !sawAntiDiag || !sawKnight {
		t.Error("Table I rows do not match the paper")
	}
}

func TestTable2Content(t *testing.T) {
	tables, err := RunTable2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Anti-diagonal":         "1 way",
		"Horizontal (case-1)":   "1 way",
		"Horizontal (case-2)":   "2 way",
		"Horizontal ({N} only)": "none",
		"Inverted-L":            "1 way",
		"Knight-Move":           "2 way",
	}
	for _, row := range tables[0].Rows {
		if w, ok := want[row[0]]; ok && row[2] != w {
			t.Errorf("Table II %s = %q, want %q", row[0], row[2], w)
		}
	}
}

func TestFig7CurveIsConcave(t *testing.T) {
	tables, err := RunFig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var optimal int
	for i, row := range tables[0].Rows {
		if strings.Contains(row[2], "optimal") {
			optimal = i
		}
	}
	if optimal == 0 || optimal == len(tables[0].Rows)-1 {
		t.Errorf("optimal t_switch at curve endpoint (row %d of %d); expected interior minimum",
			optimal, len(tables[0].Rows))
	}
}

func TestFig8InvertedLLoses(t *testing.T) {
	il, h1, err := Fig8Measure(512)
	if err != nil {
		t.Fatal(err)
	}
	for plat, a := range il {
		b := h1[plat]
		if a.GPU <= b.GPU {
			t.Errorf("%s: GPU inverted-L %v should be slower than horizontal %v", plat, a.GPU, b.GPU)
		}
		if a.CPU <= b.CPU {
			t.Errorf("%s: CPU inverted-L %v should be slower than horizontal %v", plat, a.CPU, b.CPU)
		}
	}
}

func TestCaseStudySeriesMonotone(t *testing.T) {
	series, err := CaseStudySeries([]int{128, 256, 512}, Fig9Problem)
	if err != nil {
		t.Fatal(err)
	}
	for plat, pts := range series {
		for i := 1; i < len(pts); i++ {
			if pts[i].CPU <= pts[i-1].CPU || pts[i].GPU <= pts[i-1].GPU || pts[i].Framework <= pts[i-1].Framework {
				t.Errorf("%s: times not increasing with size at point %d", plat, i)
			}
		}
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
	}
	var sb strings.Builder
	tb.Format(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "# demo\n") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "xxx  y") {
		t.Errorf("columns not aligned: %q", out)
	}
}

func TestExtPhiShapes(t *testing.T) {
	tables, err := RunExtPhi(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	// Structural check: each row has both accelerators' framework columns.
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if len(row) != 8 {
				t.Fatalf("%s: row has %d columns, want 8", tb.Title, len(row))
			}
		}
	}
}

func TestExtMultiNeverSlower(t *testing.T) {
	// Water-filled shares mean extra accelerators never slow a row, and on
	// very wide rows the three-accelerator configuration must win.
	for _, cols := range []int{4096, 524288} {
		times, err := MultiTimes(quickCfg(), cols)
		if err != nil {
			t.Fatal(err)
		}
		base := times[0]
		for i, d := range times[1:] {
			if d > base+base/100 {
				t.Errorf("cols=%d: config %d time %v exceeds cpu+k20 %v", cols, i+1, d, base)
			}
		}
	}
	wide, err := MultiTimes(quickCfg(), 524288)
	if err != nil {
		t.Fatal(err)
	}
	if wide[3] >= wide[0] {
		t.Errorf("524288-wide rows: three accelerators %v should beat one %v", wide[3], wide[0])
	}
}

func TestExtSensitivityFrameworkAlwaysWins(t *testing.T) {
	tables, err := RunExtSensitivity(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[5] != "yes" {
			t.Errorf("scale %s: framework lost to a baseline", row[0])
		}
	}
}

func TestScalingExponents(t *testing.T) {
	cpu, gpu, fw, err := ScalingExponents(DefaultConfig(), []int{1024, 2048, 4096, 8192})
	if err != nil {
		t.Fatal(err)
	}
	// The multicore CPU fills n^2 cells at fixed throughput with a
	// per-front dispatch term: effective alpha slightly under 2.
	if cpu < 1.5 || cpu > 2.1 {
		t.Errorf("cpu alpha = %.3f, want near 2", cpu)
	}
	// The GPU is launch-bound across this range: markedly sub-quadratic.
	if gpu >= cpu {
		t.Errorf("gpu alpha %.3f should be below cpu alpha %.3f (launch amortization)", gpu, cpu)
	}
	if gpu < 0.8 {
		t.Errorf("gpu alpha = %.3f implausibly low", gpu)
	}
	// The framework blends both devices; its exponent tracks the GPU's.
	if fw > cpu+0.05 {
		t.Errorf("framework alpha %.3f exceeds cpu %.3f", fw, cpu)
	}
}

func TestEnergyTripleConsistency(t *testing.T) {
	plat := hetsim.HeteroHigh()
	ec, eg, eh, err := EnergyTriple(DefaultConfig(), 4096, plat)
	if err != nil {
		t.Fatal(err)
	}
	if ec <= 0 || eg <= 0 || eh <= 0 {
		t.Fatalf("non-positive energies: %v %v %v", ec, eg, eh)
	}
	// The framework's energy is bounded below by base power over its
	// (shorter) makespan and above by running both devices flat out for the
	// GPU-only duration plus CPU-only busy energy.
	if eh >= ec+eg {
		t.Errorf("framework energy %v exceeds the sum of both baselines", eh)
	}
}

// Every experiment is fully deterministic: two runs of the same driver
// produce byte-identical tables (fixed seeds, integer-exact simulation).
func TestExperimentsDeterministic(t *testing.T) {
	render := func(tables []Table) string {
		var sb strings.Builder
		for _, tb := range tables {
			tb.Format(&sb)
		}
		return sb.String()
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			a, err := e.Run(quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Run(quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			if render(a) != render(b) {
				t.Errorf("%s: two runs differ", e.ID)
			}
		})
	}
}

func TestChartsQuick(t *testing.T) {
	charts, err := Charts(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// fig7 plus four figures x two platforms.
	if len(charts) != 9 {
		t.Fatalf("got %d charts, want 9: %v", len(charts), len(charts))
	}
	for stem, c := range charts {
		if len(c.Series) == 0 || c.Title == "" {
			t.Errorf("chart %s degenerate", stem)
		}
		var sb strings.Builder
		if err := c.WriteSVG(&sb); err != nil {
			t.Errorf("chart %s failed to render: %v", stem, err)
		}
	}
}

func TestBottleneckAttributionSumsToMakespan(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		attr, makespan, err := BottleneckAttribution(DefaultConfig(), 1024, hetero)
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, v := range attr {
			total += v
		}
		if total != makespan {
			t.Errorf("hetero=%v: attribution %v != makespan %v", hetero, total, makespan)
		}
	}
	// The pure GPU at 1k is launch-dominated: that's the whole reason the
	// framework's low-work regions pay off.
	attr, makespan, err := BottleneckAttribution(DefaultConfig(), 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	if float64(attr["kernel-launch"]) < 0.5*float64(makespan) {
		t.Errorf("kernel-launch share = %v of %v, want > 50%% at 1k", attr["kernel-launch"], makespan)
	}
}

// BottleneckAttribution returns the attribution map of one solve for tests.
func BottleneckAttribution(cfg Config, n int, hetero bool) (map[string]time.Duration, time.Duration, error) {
	plat := hetsim.HeteroHigh()
	p := Fig10Problem(cfg.Seed, n)
	solve := core.SolveGPUOnly[int32]
	if hetero {
		solve = core.SolveHetero[int32]
	}
	res, err := solve(p, core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true})
	if err != nil {
		return nil, 0, err
	}
	return trace.AttributeCriticalPath(res.Critical, plat), res.Time, nil
}

// EnergyTriple returns (cpu, gpu, framework) joules at one size, for tests.
func EnergyTriple(cfg Config, n int, plat *hetsim.Platform) (ec, eg, eh float64, err error) {
	p := Fig10Problem(cfg.Seed, n)
	o := core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true}
	rc, err := core.SolveCPUOnly(p, o)
	if err != nil {
		return 0, 0, 0, err
	}
	rg, err := core.SolveGPUOnly(p, o)
	if err != nil {
		return 0, 0, 0, err
	}
	rh, err := core.SolveHetero(p, o)
	if err != nil {
		return 0, 0, 0, err
	}
	return plat.Energy(rc.Timeline), plat.Energy(rg.Timeline), plat.Energy(rh.Timeline), nil
}

// ScalingExponents returns the fitted exponents (cpu, gpu, framework) of
// the Levenshtein series, for tests.
func ScalingExponents(cfg Config, sizes []int) (cpu, gpu, fw float64, err error) {
	plat := hetsim.HeteroHigh()
	xs := make([]float64, len(sizes))
	var cs, gs, fs []float64
	for i, n := range sizes {
		xs[i] = float64(n)
		tri, err := triMeasure(Fig10Problem(cfg.Seed, n), plat)
		if err != nil {
			return 0, 0, 0, err
		}
		cs = append(cs, tri.CPU.Seconds())
		gs = append(gs, tri.GPU.Seconds())
		fs = append(fs, tri.Framework.Seconds())
	}
	fc, err := stats.FitPower(xs, cs)
	if err != nil {
		return 0, 0, 0, err
	}
	fg, err := stats.FitPower(xs, gs)
	if err != nil {
		return 0, 0, 0, err
	}
	ff, err := stats.FitPower(xs, fs)
	if err != nil {
		return 0, 0, 0, err
	}
	return fc.Alpha, fg.Alpha, ff.Alpha, nil
}
