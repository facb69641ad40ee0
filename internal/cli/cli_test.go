package cli

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBuildInstanceAllNames(t *testing.T) {
	for _, name := range ProblemNames() {
		inst, err := BuildInstance(name, 40, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Rows < 2 || inst.Cols < 2 {
			t.Errorf("%s: degenerate dims %dx%d", name, inst.Rows, inst.Cols)
		}
		ans, err := inst.SolveSeq()
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		if !strings.Contains(ans, "=") {
			t.Errorf("%s: answer %q has no key=value form", name, ans)
		}
		par, err := inst.SolveParallel(core.Options{NativeWorkers: 2})
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if par != ans {
			t.Errorf("%s: parallel answer %q != seq %q", name, par, ans)
		}
		for _, mode := range []string{"cpu", "gpu", "hetero"} {
			info, err := inst.SolveSim(mode, core.Options{TSwitch: -1, TShare: -1})
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			if info.Result != ans {
				t.Errorf("%s %s: answer %q != seq %q", name, mode, info.Result, ans)
			}
			if len(info.Timeline.Records) == 0 {
				t.Errorf("%s %s: empty timeline", name, mode)
			}
		}
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	if _, err := BuildInstance("nope", 16, 1); err == nil {
		t.Error("unknown problem should error")
	}
	if _, err := BuildInstance("lcs", 1, 1); err == nil {
		t.Error("tiny size should error")
	}
}

func TestSolveSimUnknownMode(t *testing.T) {
	inst, err := BuildInstance("lcs", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SolveSim("quantum", core.Options{}); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestInstanceTune(t *testing.T) {
	inst, err := BuildInstance("levenshtein", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Tune(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SwitchCurve) == 0 || len(res.ShareCurve) == 0 {
		t.Error("tune produced empty curves")
	}
}

func TestProblemNamesSorted(t *testing.T) {
	names := ProblemNames()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if len(names) != 8 {
		t.Errorf("expected 8 problems, got %d", len(names))
	}
}

func TestSolveTiledAndResilientAgreeWithSeq(t *testing.T) {
	inst, err := BuildInstance("checkerboard", 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.SolveSeq()
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := inst.SolveTiled(8, core.Options{NativeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tiled != want {
		t.Errorf("tiled %q != seq %q", tiled, want)
	}
	res, corrected, err := inst.SolveResilient(3, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("resilient %q != seq %q (corrected=%d)", res, want, corrected)
	}
	if corrected == 0 {
		t.Error("fault injector never fired at 1% on 2500 cells")
	}
}

func TestSolveMultiHorizontalProblem(t *testing.T) {
	inst, err := BuildInstance("checkerboard", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := inst.SolveSeq()
	info, err := inst.SolveMulti([]string{"k20", "phi"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Result != want {
		t.Errorf("multi %q != seq %q", info.Result, want)
	}
	if _, err := inst.SolveMulti([]string{"warp9"}, core.Options{}); err == nil {
		t.Error("unknown accelerator should error")
	}
}
