package hetsim

import (
	"testing"
	"testing/quick"
	"time"
)

// endOf returns the simulated end time of op id.
func endOf(s *Sim, id OpID) time.Duration { return s.Timeline().Records[id].End }

func TestSubmitSequentialOnOneResource(t *testing.T) {
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Duration: 10 * time.Microsecond, Label: "a"})
	b := s.Submit(Op{Resource: ResCPU, Duration: 5 * time.Microsecond, Label: "b"})
	if got := endOf(s, a); got != 10*time.Microsecond {
		t.Errorf("endOf(a) = %v, want 10us", got)
	}
	if got := endOf(s, b); got != 15*time.Microsecond {
		t.Errorf("endOf(b) = %v, want 15us (FIFO on same resource)", got)
	}
}

func TestSubmitIndependentResourcesOverlap(t *testing.T) {
	s := NewSim(HeteroHigh())
	s.Submit(Op{Resource: ResCPU, Duration: 10 * time.Microsecond})
	s.Submit(Op{Resource: ResGPU, Duration: 8 * time.Microsecond})
	if got := s.Makespan(); got != 10*time.Microsecond {
		t.Errorf("Makespan = %v, want 10us (full overlap)", got)
	}
}

func TestSubmitDependencyDelaysStart(t *testing.T) {
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Duration: 10 * time.Microsecond})
	b := s.Submit(Op{Resource: ResGPU, Duration: 4 * time.Microsecond}, a)
	if got := endOf(s, b); got != 14*time.Microsecond {
		t.Errorf("endOf(b) = %v, want 14us (starts after a)", got)
	}
}

func TestSubmitNoOpDependencyIgnored(t *testing.T) {
	s := NewSim(HeteroHigh())
	b := s.Submit(Op{Resource: ResGPU, Duration: 4 * time.Microsecond}, NoOp, NoOp)
	if got := endOf(s, b); got != 4*time.Microsecond {
		t.Errorf("endOf(b) = %v, want 4us (NoOp deps ignored)", got)
	}
}

func TestSubmitDiamondDependency(t *testing.T) {
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Duration: 2 * time.Microsecond})
	b := s.Submit(Op{Resource: ResGPU, Duration: 6 * time.Microsecond}, a)
	c := s.Submit(Op{Resource: ResCopyH2D, Duration: 1 * time.Microsecond}, a)
	d := s.Submit(Op{Resource: ResCPU, Duration: 1 * time.Microsecond}, b, c)
	// d starts at max(end(b)=8us, end(c)=3us, cpu free at 2us) = 8us.
	if got := endOf(s, d); got != 9*time.Microsecond {
		t.Errorf("endOf(d) = %v, want 9us", got)
	}
}

func TestCopyEngineFoldingOnSingleEnginePlatform(t *testing.T) {
	low := HeteroLow() // one copy engine
	s := NewSim(low)
	a := s.Submit(Op{Resource: ResCopyH2D, Duration: 5 * time.Microsecond})
	b := s.Submit(Op{Resource: ResCopyD2H, Duration: 5 * time.Microsecond})
	if got := endOf(s, b); got != 10*time.Microsecond {
		t.Errorf("endOf(b) = %v, want 10us (transfers serialized on one engine)", got)
	}
	_ = a

	high := HeteroHigh() // two copy engines
	s2 := NewSim(high)
	s2.Submit(Op{Resource: ResCopyH2D, Duration: 5 * time.Microsecond})
	b2 := s2.Submit(Op{Resource: ResCopyD2H, Duration: 5 * time.Microsecond})
	if got := endOf(s2, b2); got != 5*time.Microsecond {
		t.Errorf("endOf(b2) = %v, want 5us (transfers overlap on two engines)", got)
	}
}

func TestNewStreamIsIndependentQueue(t *testing.T) {
	s := NewSim(HeteroHigh())
	st := s.NewNamedStream("")
	s.Submit(Op{Resource: ResGPU, Duration: 10 * time.Microsecond})
	b := s.Submit(Op{Resource: st, Duration: 3 * time.Microsecond})
	if got := endOf(s, b); got != 3*time.Microsecond {
		t.Errorf("endOf(stream op) = %v, want 3us (no implicit ordering vs GPU)", got)
	}
}

func TestSubmitPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	NewSim(HeteroHigh()).Submit(Op{Resource: ResCPU, Duration: -1})
}

func TestSubmitPanicsOnForwardDependency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward dep")
		}
	}()
	NewSim(HeteroHigh()).Submit(Op{Resource: ResCPU, Duration: 1}, OpID(3))
}

func TestMakespanEmpty(t *testing.T) {
	if got := NewSim(HeteroHigh()).Makespan(); got != 0 {
		t.Errorf("empty makespan = %v, want 0", got)
	}
}

// Property: the makespan is at least the busy time of every resource and at
// most the sum of all op durations (list scheduling on in-order queues).
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(durs []uint16, resPick []uint8) bool {
		s := NewSim(HeteroHigh())
		var total time.Duration
		var prev OpID = NoOp
		n := len(durs)
		if n > len(resPick) {
			n = len(resPick)
		}
		for i := 0; i < n; i++ {
			d := time.Duration(durs[i]) * time.Nanosecond
			r := Resource(int(resPick[i]) % int(numFixedResources))
			// Chain every third op to the previous one to create cross-queue deps.
			var deps []OpID
			if i%3 == 0 {
				deps = append(deps, prev)
			}
			prev = s.Submit(Op{Resource: r, Duration: d}, deps...)
			total += d
		}
		m := s.Makespan()
		if m > total {
			return false
		}
		tl := s.Timeline()
		for _, r := range tl.Resources() {
			if tl.BusyTime(r) > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ops on the same resource never overlap.
func TestNoIntraResourceOverlapProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		s := NewSim(HeteroLow())
		for i, d := range durs {
			r := Resource(i % int(numFixedResources))
			s.Submit(Op{Resource: r, Duration: time.Duration(d)})
		}
		tl := s.Timeline()
		byRes := map[Resource][]OpRecord{}
		for _, rec := range tl.Records {
			byRes[rec.Resource] = append(byRes[rec.Resource], rec)
		}
		for _, recs := range byRes {
			for i := 1; i < len(recs); i++ {
				if recs[i].Start < recs[i-1].End {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimelineSnapshotIsIndependent(t *testing.T) {
	s := NewSim(HeteroHigh())
	s.Submit(Op{Resource: ResCPU, Duration: time.Microsecond, Label: "x", Cells: 7})
	tl := s.Timeline()
	s.Submit(Op{Resource: ResCPU, Duration: time.Microsecond, Label: "y"})
	if len(tl.Records) != 1 {
		t.Errorf("snapshot grew with later submissions: %d records", len(tl.Records))
	}
	if tl.Records[0].Label != "x" || tl.Records[0].Cells != 7 {
		t.Errorf("snapshot record corrupted: %+v", tl.Records[0])
	}
}

func TestTimelineNameOf(t *testing.T) {
	s := NewSim(HeteroHigh())
	named := s.NewNamedStream("phi")
	anon := s.NewNamedStream("")
	s.Submit(Op{Resource: named, Duration: 1})
	s.Submit(Op{Resource: anon, Duration: 1})
	tl := s.Timeline()
	if tl.NameOf(named) != "phi" {
		t.Errorf("NameOf(named) = %q", tl.NameOf(named))
	}
	if tl.NameOf(anon) != "stream1" {
		t.Errorf("NameOf(anon) = %q", tl.NameOf(anon))
	}
	if tl.NameOf(ResCPU) != "cpu" {
		t.Errorf("NameOf(cpu) = %q", tl.NameOf(ResCPU))
	}
}

func TestCriticalPathSimpleChain(t *testing.T) {
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Duration: 10, Label: "a"})
	b := s.Submit(Op{Resource: ResGPU, Duration: 20, Label: "b"}, a)
	c := s.Submit(Op{Resource: ResCPU, Duration: 5, Label: "c"}, b)
	_ = c
	path := s.CriticalPath()
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	if path[0].Label != "a" || path[1].Label != "b" || path[2].Label != "c" {
		t.Errorf("path = %v", path)
	}
	// Waits compose exactly: each op starts when its predecessor ends.
	for i := 1; i < len(path); i++ {
		if path[i].Start != path[i-1].End {
			t.Errorf("gap in critical path between %q and %q", path[i-1].Label, path[i].Label)
		}
	}
}

func TestCriticalPathSkipsOffPathOps(t *testing.T) {
	s := NewSim(HeteroHigh())
	a := s.Submit(Op{Resource: ResCPU, Duration: 100, Label: "long"})
	s.Submit(Op{Resource: ResCopyH2D, Duration: 1, Label: "short"})
	b := s.Submit(Op{Resource: ResGPU, Duration: 10, Label: "tail"}, a)
	_ = b
	path := s.CriticalPath()
	if len(path) != 2 || path[0].Label != "long" || path[1].Label != "tail" {
		t.Errorf("path = %+v, want long->tail", path)
	}
}

func TestCriticalPathQueueBound(t *testing.T) {
	// Two ops on the same queue with no explicit deps: the second waits on
	// queue order, so both are on the path.
	s := NewSim(HeteroHigh())
	s.Submit(Op{Resource: ResGPU, Duration: 7, Label: "k1"})
	s.Submit(Op{Resource: ResGPU, Duration: 9, Label: "k2"})
	path := s.CriticalPath()
	if len(path) != 2 || path[0].Label != "k1" || path[1].Label != "k2" {
		t.Errorf("path = %+v", path)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if got := NewSim(HeteroHigh()).CriticalPath(); got != nil {
		t.Errorf("empty sim path = %v", got)
	}
}

// Property: the critical path is contiguous (no waits between consecutive
// ops) and spans from some start to the makespan.
func TestCriticalPathContiguityProperty(t *testing.T) {
	f := func(durs []uint16, resPick []uint8) bool {
		s := NewSim(HeteroHigh())
		var prev OpID = NoOp
		n := min(len(durs), len(resPick))
		for i := 0; i < n; i++ {
			r := Resource(int(resPick[i]) % int(numFixedResources))
			var deps []OpID
			if i%2 == 0 {
				deps = append(deps, prev)
			}
			prev = s.Submit(Op{Resource: r, Duration: time.Duration(durs[i])}, deps...)
		}
		path := s.CriticalPath()
		if n == 0 {
			return path == nil
		}
		if len(path) == 0 || path[len(path)-1].End != s.Makespan() {
			return false
		}
		for i := 1; i < len(path); i++ {
			if path[i].Start != path[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
