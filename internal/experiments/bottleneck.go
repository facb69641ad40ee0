package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/trace"
)

// RunExtBottleneck decomposes the critical path of the Figure 10 runs —
// the chain of waits that composes the makespan — into overhead and work
// classes, an analysis real hardware makes difficult but the simulator
// gives exactly. Expected reading: the pure GPU's makespan is dominated by
// kernel-launch latency at small sizes (which is why the framework's
// low-work regions pay), and compute only takes over as tables grow.
func RunExtBottleneck(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	plat := hetsim.HeteroHigh()

	var tables []Table
	for _, mode := range []struct {
		name  string
		solve func(*core.Problem[int32], core.Options) (*core.Result[int32], error)
	}{
		{"pure GPU", core.SolveGPUOnly[int32]},
		{"framework", core.SolveHetero[int32]},
	} {
		t := Table{
			Title:  "Extension: critical-path attribution (Levenshtein, Hetero-High) — " + mode.name,
			Header: []string{"size", "makespan", "kernel-launch", "gpu-compute", "cpu-dispatch", "cpu-compute", "transfer"},
		}
		for _, n := range sizes {
			p := Fig10Problem(cfg.Seed, n)
			res, err := mode.solve(p, core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true})
			if err != nil {
				return nil, err
			}
			attr := trace.AttributeCriticalPath(res.Critical, plat)
			pct := func(key string) string {
				if res.Time == 0 {
					return "-"
				}
				return fmt.Sprintf("%.0f%%", 100*float64(attr[key])/float64(res.Time))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dx%d", n, n), fd(res.Time),
				pct("kernel-launch"), pct("gpu-compute"),
				pct("cpu-dispatch"), pct("cpu-compute"), pct("transfer"),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}
