package sched_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// FuzzConfig throws arbitrary configurations at Validate and New: an
// invalid configuration must be reported by Validate and refused by New,
// and any configuration New accepts must yield a scheduler that can run a
// tiny submission and close without panicking or deadlocking. Workers is
// folded into a small positive range before New so the fuzzer cannot ask
// for millions of OS threads; everything else is passed through raw.
func FuzzConfig(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(4, 256, 8)
	f.Add(-1, -1, -1)
	f.Add(sched.MaxWorkers+1, sched.MaxQueueBound+1, sched.MaxActiveBound+1)
	f.Fuzz(func(t *testing.T, workers, queue, active int) {
		cfg := sched.Config{Workers: workers, QueueBound: queue, MaxActive: active}
		verr := cfg.Validate()
		if workers > 0 {
			cfg.Workers = 1 + workers%4
		}
		s, nerr := sched.New(cfg)
		if verr != nil {
			// Workers folding cannot fix the other fields, and an
			// over-limit Workers stays invalid only if it was the sole
			// problem; re-validate the folded config for the comparison.
			if cfg.Validate() != nil && nerr == nil {
				t.Fatalf("Validate rejected %+v but New accepted it", cfg)
			}
			if nerr != nil {
				return
			}
		}
		if nerr != nil {
			if cfg.Validate() == nil {
				t.Fatalf("Validate accepted %+v but New rejected it: %v", cfg, nerr)
			}
			return
		}
		defer s.Close()
		p := &core.Problem[int64]{
			Rows: 3, Cols: 3, Deps: core.DepW | core.DepN,
			F: func(i, j int, nb core.Neighbors[int64]) int64 { return nb.W + nb.N + 1 },
		}
		g, err := sched.Solve(context.Background(), s, p, sched.SubmitOptions{})
		if err != nil {
			t.Fatalf("solve on accepted config %+v: %v", cfg, err)
		}
		if g.At(2, 2) == 0 {
			t.Fatal("solve produced an untouched grid")
		}
	})
}
