package trace

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/hetsim"
)

func TestRecorderLaneCapRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultLaneCap}, {-5, DefaultLaneCap}, {1, 1}, {3, 4}, {8, 8}, {1000, 1024},
	} {
		r := NewRecorder(tc.in)
		if got := len(r.Lane(0).buf); got != tc.want {
			t.Errorf("NewRecorder(%d): lane cap %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRecorderRingOverflow(t *testing.T) {
	const cap = 8
	r := NewRecorder(cap)
	ln := r.Lane(0)
	const emitted = 20
	for i := 0; i < emitted; i++ {
		ln.SpanLabel(KindTask, "", i, 0, 1, int64(i))
	}
	if got, want := r.Dropped(), int64(emitted-cap); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != cap {
		t.Fatalf("retained %d events, want %d", len(evs), cap)
	}
	// Overwrite-oldest: the retained window is the newest `cap` events.
	for i, e := range evs {
		if want := int32(emitted - cap + i); e.Front != want {
			t.Errorf("event %d: front %d, want %d (oldest events should be dropped)", i, e.Front, want)
		}
	}
}

func TestRecorderNoOverflowNoDrop(t *testing.T) {
	r := NewRecorder(16)
	ln := r.Lane(0)
	for i := 0; i < 16; i++ {
		ln.Instant(KindTask, i, 0, 0)
	}
	if d := r.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d on a full-but-not-overflowed ring", d)
	}
	if got := len(r.Events()); got != 16 {
		t.Fatalf("retained %d events, want 16", got)
	}
}

func TestRecorderEventsSortedAcrossLanes(t *testing.T) {
	r := NewRecorder(16)
	r.Lane(1).SpanLabel(KindTask, "", 0, 0, 1, 30)
	r.Lane(0).SpanLabel(KindTask, "", 0, 0, 1, 10)
	r.Lane(2).SpanLabel(KindTask, "", 0, 0, 1, 20)
	r.Lane(0).SpanLabel(KindTask, "", 1, 0, 1, 40)
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i-1].TS > evs[i].TS {
			t.Fatalf("events out of order at %d: %d > %d", i, evs[i-1].TS, evs[i].TS)
		}
	}
	if evs[0].Worker != 0 || evs[0].TS != 10 {
		t.Fatalf("first event = %+v, want worker 0 at ts 10", evs[0])
	}
}

func TestLaneWorkerStamped(t *testing.T) {
	r := NewRecorder(8)
	r.Lane(3).Instant(KindTask, 0, 0, 0)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Worker != 3 {
		t.Fatalf("events = %+v, want one event on worker 3", evs)
	}
}

func TestBeginEndSolve(t *testing.T) {
	r := NewRecorder(8)
	r.BeginSolve(Meta{Solver: "async", Workers: 2})
	r.Lane(0).SpanFrom(KindTask, 0, 0, 4, time.Now())
	r.EndSolve()
	meta := r.Meta()
	if meta.Clock != "wall" {
		t.Errorf("Clock defaulted to %q, want wall", meta.Clock)
	}
	var solve *Event
	for _, e := range r.Events() {
		if e.Kind == KindSolve {
			e := e
			solve = &e
		}
	}
	if solve == nil {
		t.Fatal("no KindSolve event after EndSolve")
	}
	if solve.Label != "async" || solve.Worker != 0 {
		t.Errorf("solve event = %+v, want label async on lane 0", *solve)
	}
}

func TestImportTimeline(t *testing.T) {
	sim := hetsim.NewSim(hetsim.HeteroHigh())
	cpu := sim.Submit(hetsim.Op{Resource: hetsim.ResCPU, Kind: hetsim.OpCompute,
		Duration: time.Microsecond, Label: "cpu:p1", Cells: 100})
	sim.Submit(hetsim.Op{Resource: hetsim.ResCopyH2D, Kind: hetsim.OpTransfer,
		Duration: time.Microsecond, Label: "h2d:input", Bytes: 64}, cpu)
	sim.Submit(hetsim.Op{Resource: hetsim.ResCopyD2H, Kind: hetsim.OpTransfer,
		Duration: time.Microsecond, Label: "d2h:out", Bytes: 32}, cpu)
	sim.Submit(hetsim.Op{Resource: hetsim.ResGPU, Kind: hetsim.OpCompute,
		Duration: time.Microsecond, Label: "gpu:p2", Cells: 200}, cpu)

	r := NewRecorder(64)
	r.BeginSolve(Meta{Solver: "hetero"})
	r.ImportTimeline(sim.Timeline())

	meta := r.Meta()
	if meta.Clock != "sim" {
		t.Errorf("Clock = %q, want sim", meta.Clock)
	}
	if len(meta.Lanes) < 4 || meta.Lanes[0] != "cpu" {
		t.Errorf("Lanes = %v, want resource names starting with cpu", meta.Lanes)
	}

	counts := map[Kind]int{}
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	if counts[KindPhase] != 2 {
		t.Errorf("imported %d KindPhase events, want 2", counts[KindPhase])
	}
	if counts[KindXferH2D] != 1 || counts[KindXferD2H] != 1 {
		t.Errorf("transfer kinds = h2d:%d d2h:%d, want 1 each",
			counts[KindXferH2D], counts[KindXferD2H])
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := NewRecorder(32)
	r.BeginSolve(Meta{
		Solver: "async", Problem: "lev", Pattern: "Anti-diagonal",
		Executed: "tiles 1x4", Rows: 8, Cols: 8, Fronts: 8, Workers: 2,
	})
	r.Lane(0).SpanLabel(KindTask, "", 3, 0, 512, 1000)
	r.Lane(1).SpanLabel(KindHandoff, "", 3, 0, 0, 1500)
	r.Lane(0).SpanLabel(KindPhase, "", 3, 512, 0, 900)
	r.Lane(1).Instant(KindReady, 4, 0, 1)
	r.EndSolve()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	meta, events, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	want := r.Meta()
	want.Dropped = 0
	if meta.Solver != want.Solver || meta.Problem != want.Problem ||
		meta.Rows != want.Rows || meta.Cols != want.Cols ||
		meta.Fronts != want.Fronts || meta.Workers != want.Workers ||
		meta.Clock != want.Clock {
		t.Errorf("meta round-trip mismatch: got %+v want %+v", meta, want)
	}

	orig := r.Events()
	if len(events) != len(orig) {
		t.Fatalf("round-trip kept %d events, want %d", len(events), len(orig))
	}
	for i := range orig {
		if events[i] != orig[i] {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, events[i], orig[i])
		}
	}
}

func TestReadChromeSkipsForeignEvents(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker 0"}},
		{"name":"foreign","ph":"X","ts":1,"dur":2,"pid":9,"tid":9},
		{"name":"alien","ph":"X","ts":1,"dur":2,"pid":9,"tid":9,"args":{"kind":"martian"}},
		{"name":"task","cat":"task","ph":"X","ts":1,"dur":2,"pid":0,"tid":1,
		 "args":{"kind":"task","front":7,"a":0,"b":64,"ts_ns":1000,"dur_ns":2000}}
	],"displayTimeUnit":"ms"}`
	_, events, err := ReadChrome(bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("parsed %d events, want 1 (foreign records skipped)", len(events))
	}
	e := events[0]
	if e.Kind != KindTask || e.Front != 7 || e.TS != 1000 || e.Dur != 2000 || e.Worker != 1 {
		t.Errorf("parsed event = %+v", e)
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, _, err := ReadChrome(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("want error on non-JSON input")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindSolve; k <= KindReady; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
}
