package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/stats"
)

// RunExtScaling fits power laws T(n) = C * n^alpha to the Figure 10 and
// Figure 13 series on Hetero-High and reports the effective scaling
// exponents. A quadratic table filled at fixed throughput scales with
// alpha = 2; sub-quadratic effective exponents expose per-iteration
// overheads still amortizing across the measured range (the GPU's
// kernel-launch floor), and the framework's exponent sits between the
// devices it blends.
func RunExtScaling(cfg Config) ([]Table, error) {
	sizes := []int{1024, 2048, 4096, 8192}
	if cfg.Quick {
		sizes = []int{256, 512, 1024}
	}
	plat := hetsim.HeteroHigh()

	var tables []Table
	for _, workloadRow := range []struct {
		title string
		build func(n int) *core.Problem[int32]
	}{
		{"Levenshtein (Fig 10)", func(n int) *core.Problem[int32] { return Fig10Problem(cfg.Seed, n) }},
		{"checkerboard (Fig 13)", func(n int) *core.Problem[int32] { return Fig13Problem(cfg.Seed, n) }},
	} {
		xs := make([]float64, len(sizes))
		series := map[string][]float64{"cpu": nil, "gpu": nil, "framework": nil}
		for i, n := range sizes {
			xs[i] = float64(n)
			tri, err := triMeasure(workloadRow.build(n), plat)
			if err != nil {
				return nil, err
			}
			series["cpu"] = append(series["cpu"], tri.CPU.Seconds())
			series["gpu"] = append(series["gpu"], tri.GPU.Seconds())
			series["framework"] = append(series["framework"], tri.Framework.Seconds())
		}
		t := Table{
			Title:  "Extension: scaling exponents T(n) = C*n^alpha — " + workloadRow.title + " (Hetero-High)",
			Header: []string{"implementation", "alpha", "R^2"},
		}
		for _, name := range []string{"cpu", "gpu", "framework"} {
			fit, err := stats.FitPower(xs, series[name])
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%.3f", fit.Alpha), fmt.Sprintf("%.4f", fit.R2),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}
