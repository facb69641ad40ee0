package sched_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/trace"
)

// testProblem mirrors the core test recurrence: every contributing
// neighbour feeds the cell with a position-dependent term, so any
// mis-scheduled read changes the output.
func testProblem(m core.DepMask, rows, cols int) *core.Problem[int64] {
	return &core.Problem[int64]{
		Name: "sched-" + m.String(),
		Rows: rows,
		Cols: cols,
		Deps: m,
		F: func(i, j int, nb core.Neighbors[int64]) int64 {
			v := int64(i*31+j*17) % 13
			if m.Has(core.DepW) {
				v += 2*nb.W + 1
			}
			if m.Has(core.DepNW) {
				v += 3 * nb.NW
			}
			if m.Has(core.DepN) {
				v += max(nb.N, v)
			}
			if m.Has(core.DepNE) {
				v += nb.NE ^ 5
			}
			return v % 1_000_003
		},
		Boundary:     func(i, j int) int64 { return int64(i + 2*j) },
		BytesPerCell: 8,
	}
}

// gateWorkload is a one-tile workload whose Run blocks on gate; started
// is closed when the worker enters it. It pins a worker deterministically.
func gateWorkload(started, gate chan struct{}) *core.Workload {
	var once sync.Once
	return &core.Workload{
		Info:       trace.Meta{Solver: "sched", Problem: "gate", Rows: 1, Cols: 1, Fronts: 1},
		TotalCells: 1,
		Tiles:      1,
		Sources:    []int32{0},
		Run: func(int32, *[4]int32) (int, int, bool) {
			once.Do(func() { close(started) })
			<-gate
			return 1, 0, true
		},
	}
}

// sizedWorkload is a trivial one-tile workload whose only interesting
// property is its TotalCells (for admission-priority tests). A non-nil
// log records the run.
func sizedWorkload(name string, cells int64, log *runLog) *core.Workload {
	return &core.Workload{
		Info:       trace.Meta{Solver: "sched", Problem: name, Rows: 1, Cols: 1, Fronts: 1},
		TotalCells: cells,
		Tiles:      1,
		Sources:    []int32{0},
		Run: func(int32, *[4]int32) (int, int, bool) {
			if log != nil {
				log.add(name)
			}
			return 1, 0, true
		},
	}
}

// runLog records the order in which workloads ran. With one worker and
// MaxActive 1, solves run one at a time in admission order.
type runLog struct {
	mu    sync.Mutex
	names []string
}

func (l *runLog) add(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.names = append(l.names, name)
}

func (l *runLog) order() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

func newScheduler(t *testing.T, cfg sched.Config) *sched.Scheduler {
	t.Helper()
	s, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// Every mask through the scheduler must agree exactly with the sequential
// oracle.
func TestSchedulerSolveMatchesSequential(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 4})
	dims := [][2]int{{1, 1}, {1, 9}, {9, 1}, {8, 8}, {13, 37}, {37, 13}}
	for _, m := range core.AllDepMasks() {
		for _, d := range dims {
			p := testProblem(m, d[0], d[1])
			want, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sched.Solve(context.Background(), s, p, sched.SubmitOptions{})
			if err != nil {
				t.Fatalf("%s %v: %v", m, d, err)
			}
			if !table.EqualComparable(want, got) {
				t.Errorf("%s %dx%d: scheduler solve differs from sequential", m, d[0], d[1])
			}
		}
	}
}

// A single-column knight-pattern table has zero-size fronts at odd t; the
// front-chunk scheduler this one replaced hung on them (34x1 wedged at the
// t=65 publish point). The tile engine has no fronts, but the shapes stay
// as regression cases: each is a chain of one-cell tiles under NE.
func TestSchedulerEmptyKnightFronts(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 2})
	for _, rows := range []int{34, 101} {
		p := testProblem(core.DepW|core.DepNE, rows, 1)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := sched.Solve(ctx, s, p, sched.SubmitOptions{})
		cancel()
		if err != nil {
			t.Fatalf("%dx1 knight solve: %v", rows, err)
		}
		if !table.EqualComparable(want, got) {
			t.Errorf("%dx1 knight solve differs from sequential", rows)
		}
	}
}

// Many concurrent submissions on a small shared pool must all complete
// correctly — the scheduler's whole reason to exist.
func TestSchedulerConcurrentSubmissions(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 4, MaxActive: 6})
	masks := core.AllDepMasks()
	const n = 30
	var wg sync.WaitGroup
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			m := masks[k%len(masks)]
			p := testProblem(m, 20+k, 35-k%10)
			want, err := core.Solve(p)
			if err != nil {
				errs[k] = err
				return
			}
			got, err := sched.Solve(context.Background(), s, p, sched.SubmitOptions{})
			if err != nil {
				errs[k] = err
				return
			}
			if !table.EqualComparable(want, got) {
				errs[k] = fmt.Errorf("%s: result differs from sequential", m)
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("submission %d: %v", k, err)
		}
	}
	st := s.Stats()
	if st.Submitted != n || st.Done != n {
		t.Errorf("stats: submitted=%d done=%d, want %d/%d", st.Submitted, st.Done, n, n)
	}
	if st.Canceled != 0 || st.Rejected != 0 {
		t.Errorf("stats: canceled=%d rejected=%d, want 0/0", st.Canceled, st.Rejected)
	}
}

func TestSchedulerRejectsAfterClose(t *testing.T) {
	s, err := sched.New(sched.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err = sched.Solve(context.Background(), s, testProblem(core.DepN, 3, 3), sched.SubmitOptions{})
	var rej *sched.Rejected
	if !errors.As(err, &rej) || !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("submit after close: got %v, want *Rejected wrapping ErrClosed", err)
	}
}

func TestSchedulerRejectsExpiredContext(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sched.Solve(ctx, s, testProblem(core.DepN, 3, 3), sched.SubmitOptions{})
	var rej *sched.Rejected
	if !errors.As(err, &rej) || !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with dead ctx: got %v, want *Rejected wrapping context.Canceled", err)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 1, QueueBound: 1, MaxActive: 1})
	started, gate := make(chan struct{}), make(chan struct{})
	hGate, err := s.Submit(context.Background(), gateWorkload(started, gate), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now pinned inside the gate solve
	hQ, err := s.Submit(context.Background(), sizedWorkload("queued", 1, nil), sched.SubmitOptions{})
	if err != nil {
		t.Fatalf("first queued submission: %v", err)
	}
	_, err = s.Submit(context.Background(), sizedWorkload("overflow", 1, nil), sched.SubmitOptions{})
	var rej *sched.Rejected
	if !errors.As(err, &rej) || !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("overflow submission: got %v, want *Rejected wrapping ErrQueueFull", err)
	}
	if rej.QueueDepth != 1 {
		t.Errorf("rejection queue depth = %d, want 1", rej.QueueDepth)
	}
	close(gate)
	if err := hGate.Wait(); err != nil {
		t.Errorf("gate solve: %v", err)
	}
	if err := hQ.Wait(); err != nil {
		t.Errorf("queued solve: %v", err)
	}
}

// A submission whose context expires while still queued is rejected (it
// never ran); one canceled mid-run returns *core.Canceled. The two types
// partition the non-success outcomes.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 1, MaxActive: 1})
	started, gate := make(chan struct{}), make(chan struct{})
	hGate, err := s.Submit(context.Background(), gateWorkload(started, gate), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cause := errors.New("deadline for the test")
	ctx, cancel := context.WithCancelCause(context.Background())
	hQ, err := s.Submit(ctx, sizedWorkload("queued", 1, nil), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancel(cause)
	err = hQ.Wait() // must return without the gate ever opening
	var rej *sched.Rejected
	if !errors.As(err, &rej) || !errors.Is(err, cause) {
		t.Fatalf("queued cancel: got %v, want *Rejected wrapping the cause", err)
	}
	close(gate)
	if err := hGate.Wait(); err != nil {
		t.Errorf("gate solve: %v", err)
	}
}

func TestSchedulerCancelWhileRunning(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	// A chain of ten one-cell tiles: tile t readies tile t+1.
	wl := &core.Workload{
		Info:       trace.Meta{Solver: "sched", Problem: "cancel-mid-run", Rows: 1, Cols: 10, Fronts: 1},
		TotalCells: 10,
		Tiles:      10,
		Sources:    []int32{0},
		Run: func(t int32, ready *[4]int32) (int, int, bool) {
			once.Do(func() { close(started) })
			if t > 0 {
				<-ctx.Done() // later tiles stall until the cancel lands
				return 0, 0, false
			}
			ready[0] = t + 1
			return 1, 1, true
		},
	}
	h, err := s.Submit(ctx, wl, sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	err = h.Wait()
	var canceled *core.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("mid-run cancel: got %v, want *core.Canceled", err)
	}
	if canceled.Solver != "sched" {
		t.Errorf("canceled.Solver = %q, want \"sched\"", canceled.Solver)
	}
}

// With the only worker pinned, a small solve queued after a large one must
// be admitted first (bounded jump), and Stats must count the full
// lifecycle of all three solves. Small means at most DefaultSmallCells
// cells: the two solves sit on either side of the threshold.
func TestSchedulerSmallSolvePriorityAndStats(t *testing.T) {
	log := &runLog{}
	s := newScheduler(t, sched.Config{Workers: 1, MaxActive: 1})
	started, gate := make(chan struct{}), make(chan struct{})
	hGate, err := s.Submit(context.Background(), gateWorkload(started, gate), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	hBig, err := s.Submit(context.Background(), sizedWorkload("big", sched.DefaultSmallCells+1, log), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hSmall, err := s.Submit(context.Background(), sizedWorkload("small", sched.DefaultSmallCells, log), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, h := range []*sched.Handle{hGate, hBig, hSmall} {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Admission order after the gate: the small solve jumps the big one.
	if got := log.order(); len(got) != 2 || got[0] != "small" || got[1] != "big" {
		t.Errorf("run order %v, want [small big]", got)
	}
	if hSmall.ID() == hBig.ID() || hSmall.ID() == 0 {
		t.Errorf("handle IDs not distinct: small=%d big=%d", hSmall.ID(), hBig.ID())
	}
	st := s.Stats()
	if st.Submitted != 3 || st.Started != 3 || st.Done != 3 || st.Canceled != 0 || st.Rejected != 0 {
		t.Errorf("lifecycle submitted/started/done/canceled/rejected = %d/%d/%d/%d/%d, want 3/3/3/0/0",
			st.Submitted, st.Started, st.Done, st.Canceled, st.Rejected)
	}
	if st.QueueWait.Count != 3 || st.SolveLatency.Count != 3 {
		t.Errorf("queue-wait/latency observations = %d/%d, want 3/3", st.QueueWait.Count, st.SolveLatency.Count)
	}
	if st.PeakQueueDepth != 2 || st.PeakActive != 1 {
		t.Errorf("peak queue/active = %d/%d, want 2/1", st.PeakQueueDepth, st.PeakActive)
	}
}

// A large submission is passed by fewer than DefaultSmallBoost later
// small ones: the boost is a bounded jump, not a separate priority
// class.
func TestSchedulerSmallBoostIsBounded(t *testing.T) {
	log := &runLog{}
	s := newScheduler(t, sched.Config{Workers: 1, MaxActive: 1})
	started, gate := make(chan struct{}), make(chan struct{})
	hGate, err := s.Submit(context.Background(), gateWorkload(started, gate), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var handles []*sched.Handle
	hBig, err := s.Submit(context.Background(), sizedWorkload("big", 1_000_000, log), sched.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, hBig)
	for k := 0; k < sched.DefaultSmallBoost+2; k++ {
		h, err := s.Submit(context.Background(), sizedWorkload(fmt.Sprintf("small%d", k), 10, log), sched.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(gate)
	if err := hGate.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	order := log.order()
	pos := -1
	for i, name := range order {
		if name == "big" {
			pos = i
		}
	}
	// After the gate, with a boost of 8, only small0..small6 (arrival
	// distance 1 to 7, strictly inside the boost) jump the big solve —
	// small7 ties on score and the tie goes to the earlier arrival.
	if want := sched.DefaultSmallBoost - 1; pos != want {
		t.Errorf("big solve ran at position %d (order %v), want %d", pos, order, want)
	}
}

// The per-submission tracer must carry the queue span and the tile spans
// of its own solve only, one cell per cell of the table.
func TestSchedulerTracer(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 2})
	rec := trace.NewRecorder(0)
	p := testProblem(core.DepW|core.DepN, 40, 40)
	got, err := sched.Solve(context.Background(), s, p, sched.SubmitOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Fatal("traced solve differs from sequential")
	}
	events := rec.Events()
	counts := map[trace.Kind]int{}
	var cells int64
	for _, e := range events {
		counts[e.Kind]++
		if e.Kind == trace.KindTask {
			cells += e.B - e.A
		}
	}
	if counts[trace.KindQueue] != 1 {
		t.Errorf("queue spans = %d, want 1", counts[trace.KindQueue])
	}
	if counts[trace.KindTask] == 0 || cells != 40*40 {
		t.Errorf("%d tile spans covering %d cells, want tiles covering %d", counts[trace.KindTask], cells, 40*40)
	}
	if rec.Meta().Solver != "sched" {
		t.Errorf("trace meta solver = %q, want \"sched\"", rec.Meta().Solver)
	}
}

func TestSchedulerStatsAndWorkerLoads(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 2})
	p := testProblem(core.DepW|core.DepN, 64, 64)
	for k := 0; k < 3; k++ {
		if _, err := sched.Solve(context.Background(), s, p, sched.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != 3 || st.Done != 3 {
		t.Errorf("submitted=%d done=%d, want 3/3", st.Submitted, st.Done)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("worker loads = %d entries, want 2", len(st.Workers))
	}
	var cells int64
	for _, wl := range st.Workers {
		cells += wl.Cells
	}
	if want := int64(3 * 64 * 64); cells != want {
		t.Errorf("total cells across workers = %d, want %d", cells, want)
	}
	if st.QueueDepth != 0 || st.Active != 0 {
		t.Errorf("idle scheduler reports queue=%d active=%d", st.QueueDepth, st.Active)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []sched.Config{
		{Workers: sched.MaxWorkers + 1},
		{QueueBound: sched.MaxQueueBound + 1},
		{MaxActive: sched.MaxActiveBound + 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: Validate accepted an out-of-range value", i)
		}
		if _, err := sched.New(cfg); err == nil {
			t.Errorf("config %d: New accepted an out-of-range value", i)
		}
	}
	// Zero and negative values select defaults.
	for _, cfg := range []sched.Config{{}, {Workers: -1, QueueBound: -1, MaxActive: -1}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("default-selecting config rejected: %v", err)
		}
	}
}

func TestSubmitRejectsInvalidWorkload(t *testing.T) {
	s := newScheduler(t, sched.Config{Workers: 1})
	if _, err := s.Submit(context.Background(), nil, sched.SubmitOptions{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := s.Submit(context.Background(), &core.Workload{Tiles: 1, Sources: []int32{0}}, sched.SubmitOptions{}); err == nil {
		t.Error("workload without Run accepted")
	}
	noSources := sizedWorkload("no-sources", 1, nil)
	noSources.Sources = nil
	if _, err := s.Submit(context.Background(), noSources, sched.SubmitOptions{}); err == nil {
		t.Error("workload without a ready tile accepted")
	}
	noTiles := sizedWorkload("no-tiles", 1, nil)
	noTiles.Tiles = 0
	if _, err := s.Submit(context.Background(), noTiles, sched.SubmitOptions{}); err == nil {
		t.Error("workload without tiles accepted")
	}
}
