package main

import (
	"runtime"
	"testing"
	"time"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkNativePoolLevenshtein4k-8   	       3	 123456789 ns/op	     120 B/op	       7 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a valid result line")
	}
	if r.Name != "BenchmarkNativePoolLevenshtein4k-8" || r.Iterations != 3 ||
		r.NsPerOp != 123456789 || r.BytesPerOp != 120 || r.AllocsPerOp != 7 {
		t.Errorf("parsed %+v", r)
	}
	if _, ok := parseLine("BenchmarkBroken-8"); ok {
		t.Error("parseLine accepted a truncated line")
	}
	if _, ok := parseLine("BenchmarkNoTime-8  5  garbage ns/op"); ok {
		t.Error("parseLine accepted a line without a numeric time")
	}
}

func TestCheckAssert(t *testing.T) {
	benchmarks := []result{
		{Name: "BenchmarkServerSolveBatch8x512/wire-8", NsPerOp: 5e7, AllocsPerOp: 1300},
		{Name: "BenchmarkServerSolveBatch8x512/wire-binary-8", NsPerOp: 5e7, AllocsPerOp: 1450},
		{Name: "BenchmarkServerSolveBatch8x512/direct-8", NsPerOp: 5e7},
	}
	if msgs := checkAssert("wire-binary<=1600", benchmarks); len(msgs) != 0 {
		t.Errorf("within-budget assert failed: %v", msgs)
	}
	if msgs := checkAssert("wire-binary<=1000", benchmarks); len(msgs) != 1 {
		t.Errorf("over-budget assert produced %v, want one violation", msgs)
	}
	// "wire" matches both wire variants; the binary one breaks a budget of
	// 1400.
	if msgs := checkAssert("wire<=1400", benchmarks); len(msgs) != 1 {
		t.Errorf("substring assert produced %v, want one violation", msgs)
	}
	if msgs := checkAssert("no-such-bench<=10", benchmarks); len(msgs) != 1 {
		t.Errorf("unmatched assert produced %v, want one no-match error", msgs)
	}
	if msgs := checkAssert("garbage", benchmarks); len(msgs) != 1 {
		t.Errorf("malformed assert produced %v, want one parse error", msgs)
	}
	if msgs := checkAssert("wire<=not-a-number", benchmarks); len(msgs) != 1 {
		t.Errorf("bad-limit assert produced %v, want one parse error", msgs)
	}
}

func TestRunMetadata(t *testing.T) {
	rep := report{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if rep.GoVersion == "" || rep.GoMaxProcs < 1 {
		t.Errorf("metadata incomplete: %+v", rep)
	}
	if _, err := time.Parse(time.RFC3339, rep.Timestamp); err != nil {
		t.Errorf("timestamp %q is not RFC3339: %v", rep.Timestamp, err)
	}
	// Commit is best-effort (empty outside a git checkout); this test runs
	// inside the repo, so it should resolve.
	if rep.Commit == "" {
		t.Log("gitCommit returned empty (no git in environment?)")
	}
}

// TestCommitLabel: a clean tree stamps the bare short hash; any
// porcelain status line (modified, added or untracked) marks it dirty.
func TestCommitLabel(t *testing.T) {
	cases := []struct{ head, status, want string }{
		{"1a2b3c4\n", "", "1a2b3c4"},
		{"1a2b3c4\n", "\n", "1a2b3c4"},
		{"1a2b3c4\n", " M internal/sched/sched.go\n", "1a2b3c4-dirty"},
		{"1a2b3c4\n", "?? notes.go\n", "1a2b3c4-dirty"},
		{"1a2b3c4\n", "A  new.go\n M old.go\n", "1a2b3c4-dirty"},
	}
	for _, c := range cases {
		if got := commitLabel(c.head, c.status); got != c.want {
			t.Errorf("commitLabel(%q, %q) = %q, want %q", c.head, c.status, got, c.want)
		}
	}
}
