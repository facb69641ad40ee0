// Seeded scenario runs: each test executes one full schedule against a
// real in-process cluster and requires a violation-free Report. These
// are the `make sim-smoke` scenarios — quick enough for -race CI, broad
// enough to cross every op kind and fault type.
package sim

import (
	"context"
	"testing"
	"time"
)

// runScenario executes one generated scenario and fails on any
// invariant violation, printing the seed and the op log path would-be
// reproducers need.
func runScenario(t *testing.T, cfg GenConfig) *Report {
	t.Helper()
	rep, err := Run(context.Background(), Config{
		Gen:      cfg,
		TraceDir: t.TempDir(),
		Timeout:  90 * time.Second,
	})
	if err != nil {
		t.Fatalf("seed %d: run failed to start: %v", cfg.Seed, err)
	}
	if err := rep.Err(); err != nil {
		path := t.TempDir() + "/oplog.json"
		if serr := SaveSchedule(path, rep.Schedule); serr == nil {
			t.Logf("op log written to %s (replay with lddpsim -replay)", path)
		}
		t.Fatal(err)
	}
	if got := len(rep.Schedule.Ops); got == 0 {
		t.Fatal("scenario ran zero ops")
	}
	t.Logf("seed %d: %d ops, classes %v, relocations %d, 429s %d, %s",
		cfg.Seed, len(rep.Schedule.Ops), rep.Classes, rep.Relocations,
		rep.Rejected429, rep.Elapsed.Round(time.Millisecond))
	return rep
}

// TestScenarioBaseline: no structural faults — every op must land in a
// benign class, no node may push back, and the coordinator must count
// zero relocations.
func TestScenarioBaseline(t *testing.T) {
	rep := runScenario(t, GenConfig{Seed: 1, Nodes: 2, Ops: 30, Arms: -1})
	if rep.Relocations != 0 {
		t.Errorf("baseline run recorded %d relocations", rep.Relocations)
	}
	if rep.Rejected429 != 0 {
		t.Errorf("baseline run recorded %d 429s", rep.Rejected429)
	}
	if rep.Classes[classOK] == 0 {
		t.Error("baseline run produced no successful ops")
	}
}

// TestScenarioSaturation: the armed-gate run must actually produce
// wire-level 429 pushback (checked again here on top of the engine's
// own arm invariant).
func TestScenarioSaturation(t *testing.T) {
	rep := runScenario(t, GenConfig{Seed: 2, Nodes: 2, Ops: 40, Arms: 1})
	if rep.Rejected429 == 0 {
		t.Error("saturation run recorded no 429 attempts")
	}
}

// TestScenarioKillAndDrain: one node dies, one drains, fleet solves
// keep succeeding via relocation.
func TestScenarioKillAndDrain(t *testing.T) {
	rep := runScenario(t, GenConfig{Seed: 3, Nodes: 3, Ops: 50, Kills: 1, Drains: 1})
	if rep.Classes[classOK] == 0 {
		t.Error("faulted run produced no successful ops")
	}
}

// TestScenarioEverything: the full mix at once — saturation, a kill, a
// drain, wire faults — across more ops.
func TestScenarioEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mix scenario skipped in -short")
	}
	runScenario(t, GenConfig{Seed: 4, Nodes: 3, Ops: 80, Kills: 1, Drains: 1, Arms: 1})
}
