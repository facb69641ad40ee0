package lddp_test

import (
	"bytes"
	"context"
	"expvar"
	"strings"
	"testing"

	"repro/lddp"
)

func TestWithTracerRecordsParallelSolve(t *testing.T) {
	tr := lddp.NewTracer()
	p := testProblem(lddp.DepW|lddp.DepN, 64, 64)
	if _, err := lddp.Solve(context.Background(), p,
		lddp.WithWorkers(4), lddp.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("tracer recorded no events")
	}

	var buf bytes.Buffer
	if err := lddp.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Error("WriteTrace output is not a Chrome trace document")
	}

	rep := lddp.AnalyzeTrace(tr, 0)
	if rep.Events != len(events) {
		t.Errorf("report covers %d events, tracer holds %d", rep.Events, len(events))
	}
	if rep.Meta.Solver != "async" {
		t.Errorf("report solver = %q, want async (the tile engine)", rep.Meta.Solver)
	}

	buf.Reset()
	if err := lddp.WriteTraceSummary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "solver=async") {
		t.Errorf("summary = %q", buf.String())
	}
}

func TestWithTracerRecordsSimSolve(t *testing.T) {
	tr := lddp.NewTracerCap(1 << 12)
	p := testProblem(lddp.DepW|lddp.DepN, 64, 64)
	if _, err := lddp.Solve(context.Background(), p,
		lddp.WithStrategy(lddp.Hetero), lddp.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	rep := lddp.AnalyzeTrace(tr, 0)
	if rep.Meta.Clock != "sim" {
		t.Errorf("sim trace clock = %q, want sim", rep.Meta.Clock)
	}
	if rep.Events == 0 {
		t.Error("sim trace has no imported events")
	}
}

func TestPublishExpvarDuplicate(t *testing.T) {
	m := &lddp.Metrics{}
	const name = "lddp_test_publish_expvar_duplicate"
	if err := m.PublishExpvar(name); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if expvar.Get(name) == nil {
		t.Fatal("first publish did not register the name")
	}
	// A second publish of the same name must report an error, not panic
	// (expvar.Publish would panic here).
	if err := m.PublishExpvar(name); err == nil {
		t.Fatal("duplicate publish returned nil error")
	}
	other := &lddp.Metrics{}
	if err := other.PublishExpvar(name); err == nil {
		t.Fatal("duplicate publish from another Metrics returned nil error")
	}
	if err := other.PublishExpvar(name + "_second"); err != nil {
		t.Fatalf("fresh name: %v", err)
	}
}
