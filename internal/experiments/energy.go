package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hetsim"
)

// RunExtEnergy extends the evaluation with an energy dimension the paper's
// era cared about but its figures omit: the modeled energy of the three
// implementations on the Levenshtein workload. Energy and time pull in
// different directions for a heterogeneous framework — it finishes sooner
// but keeps two devices drawing power — so the framework's energy verdict
// depends on how much idle base power the shorter makespan saves.
func RunExtEnergy(cfg Config) ([]Table, error) {
	sizes := figSizes(cfg, []int{1024, 2048, 4096, 8192})
	var tables []Table
	for _, plat := range hetsim.Platforms() {
		t := Table{
			Title:  "Extension: modeled energy (Levenshtein) — " + plat.Name,
			Header: []string{"size", "cpu (J)", "gpu (J)", "framework (J)", "gpu/fw"},
		}
		for _, n := range sizes {
			p := Fig10Problem(cfg.Seed, n)
			o := core.Options{Platform: plat, TSwitch: -1, TShare: -1, SkipCompute: true}
			rc, err := core.SolveCPUOnly(p, o)
			if err != nil {
				return nil, err
			}
			rg, err := core.SolveGPUOnly(p, o)
			if err != nil {
				return nil, err
			}
			rh, err := core.SolveHetero(p, o)
			if err != nil {
				return nil, err
			}
			ec := plat.Energy(rc.Timeline)
			eg := plat.Energy(rg.Timeline)
			eh := plat.Energy(rh.Timeline)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dx%d", n, n),
				fmt.Sprintf("%.3f", ec), fmt.Sprintf("%.3f", eg), fmt.Sprintf("%.3f", eh),
				fmt.Sprintf("%.2f", eg/eh),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}
