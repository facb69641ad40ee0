package hetsim

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Platform bundles the device models of one heterogeneous node.
type Platform struct {
	Name string
	CPU  CPUModel
	GPU  GPUModel
	Bus  PCIeModel
	// CopyEngines is the number of DMA engines (1 or 2). Tesla-class parts
	// have two, allowing simultaneous H2D and D2H; consumer parts have one.
	CopyEngines int
}

// Validate reports whether the platform's parameters are self-consistent.
func (p *Platform) Validate() error {
	var errs []error
	if p.Name == "" {
		errs = append(errs, errors.New("hetsim: platform name is empty"))
	}
	if p.CPU.Threads < 1 {
		errs = append(errs, fmt.Errorf("hetsim: CPU threads %d < 1", p.CPU.Threads))
	}
	if p.CPU.CellCost <= 0 {
		errs = append(errs, errors.New("hetsim: CPU cell cost must be positive"))
	}
	if p.GPU.SMX < 1 || p.GPU.CoresPerSMX < 1 {
		errs = append(errs, fmt.Errorf("hetsim: GPU geometry %dx%d invalid", p.GPU.SMX, p.GPU.CoresPerSMX))
	}
	if p.GPU.WaveCost <= 0 {
		errs = append(errs, errors.New("hetsim: GPU wave cost must be positive"))
	}
	if p.GPU.UncoalescedPenalty < 1 {
		errs = append(errs, fmt.Errorf("hetsim: uncoalesced penalty %.2f < 1", p.GPU.UncoalescedPenalty))
	}
	if p.Bus.BandwidthPinned <= 0 || p.Bus.BandwidthPageable <= 0 {
		errs = append(errs, errors.New("hetsim: bus bandwidth must be positive"))
	}
	if p.CopyEngines != 1 && p.CopyEngines != 2 {
		errs = append(errs, fmt.Errorf("hetsim: copy engines %d not in {1,2}", p.CopyEngines))
	}
	return errors.Join(errs...)
}

// HeteroHigh returns the server-class platform of the paper: an Intel
// i7-980 (6 cores / 12 threads @ 3.33 GHz) paired with an Nvidia Tesla K20
// (13 SMX x 192 cores = 2496 cores, Kepler).
//
// Calibration: the CPU sustains ~0.6 Gcells/s across 12 threads on branchy
// integer DP recurrences; the K20 sustains ~8.3 Gcells/s on coalesced
// memory-bound kernels, with a ~3.5 us launch latency typical of CUDA 5.0
// on that era's driver stack; pinned-memory micro-transfers land in the
// sub-microsecond range while pageable transfers pay a staging copy.
func HeteroHigh() *Platform {
	return &Platform{
		Name: "Hetero-High",
		CPU: CPUModel{
			Cores:            6,
			Threads:          12,
			ClockGHz:         3.33,
			CellCost:         20,   // ns; ~0.6 Gcells/s across 12 threads
			DispatchOverhead: 2000, // ns per parallel region
			SpawnCost:        350,  // ns per task in thread-per-cell mode
			StridePenalty:    1.6,
		},
		GPU: GPUModel{
			SMX:                13,
			CoresPerSMX:        192,
			WarpSize:           32,
			LaunchLatency:      3500, // ns
			WaveCost:           300,  // ns; ~8.3 Gcells/s coalesced
			UncoalescedPenalty: 4.0,
		},
		Bus: PCIeModel{
			LatencyPageable:   2500, // ns
			LatencyPinned:     400,  // ns
			BandwidthPageable: 5.0e9,
			BandwidthPinned:   6.0e9,
		},
		CopyEngines: 2,
	}
}

// HeteroLow returns the commodity platform of the paper: an Intel i7-3632QM
// (4 cores / 8 threads @ 2.2 GHz) paired with an Nvidia GeForce GT 650M
// (2 SMX x 192 cores = 384 cores, Kepler).
func HeteroLow() *Platform {
	return &Platform{
		Name: "Hetero-Low",
		CPU: CPUModel{
			Cores:            4,
			Threads:          8,
			ClockGHz:         2.2,
			CellCost:         25,   // ns; ~0.32 Gcells/s across 8 threads
			DispatchOverhead: 2500, // ns
			SpawnCost:        500,  // ns
			StridePenalty:    1.6,
		},
		GPU: GPUModel{
			SMX:                2,
			CoresPerSMX:        192,
			WarpSize:           32,
			LaunchLatency:      6000, // ns
			WaveCost:           300,  // ns; ~1.28 Gcells/s coalesced
			UncoalescedPenalty: 4.0,
		},
		Bus: PCIeModel{
			LatencyPageable:   4000, // ns
			LatencyPinned:     800,  // ns
			BandwidthPageable: 2.5e9,
			BandwidthPinned:   3.0e9,
		},
		CopyEngines: 1,
	}
}

// Platforms returns the two calibrated presets in paper order.
func Platforms() []*Platform {
	return []*Platform{HeteroHigh(), HeteroLow()}
}

// PlatformByName returns the preset with the given name, or an error. Name
// matching is exact ("Hetero-High", "Hetero-Low", "Hetero-Phi").
func PlatformByName(name string) (*Platform, error) {
	for _, p := range append(Platforms(), HeteroPhi(), HeteroModern()) {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("hetsim: unknown platform %q (want Hetero-High, Hetero-Low, Hetero-Phi or Hetero-Modern)", name)
}

// HeteroPhi returns the future-work platform of the paper's conclusion
// ("It would be interesting to see how does a heterogeneous approach
// impact the implementation if the system has some other accelerators
// like Intel Xeon-Phi"): the Hetero-High host CPU paired with a Xeon Phi
// 5110P instead of the K20.
//
// The Phi is modeled through the same accelerator cost model: 60 cores x 4
// hardware threads = 240 execution contexts ("lanes"), a per-wave cost
// reflecting its 1.05 GHz in-order cores on branchy integer DP (~1.6
// Gcells/s sustained — well below the K20 but above the host CPU), a
// noticeably higher offload-region start cost than a CUDA kernel launch,
// and a milder uncoalesced penalty because the Phi's coherent caches
// tolerate strided access better than a GPU's memory coalescer.
func HeteroPhi() *Platform {
	p := HeteroHigh()
	p.Name = "Hetero-Phi"
	p.GPU = GPUModel{
		SMX:                60,    // cores
		CoresPerSMX:        4,     // hardware threads per core
		WarpSize:           16,    // 512-bit SIMD over int32
		LaunchLatency:      15000, // ns; offload-region start
		WaveCost:           150,   // ns; ~1.6 Gcells/s sustained
		UncoalescedPenalty: 2.0,
	}
	return p
}

// PowerModel holds the coarse per-device power draws used for energy
// accounting: a device draws Active watts while an op occupies it, and the
// whole node draws Base watts for the duration of the run (idle silicon,
// memory, board). DMA transfers are folded into Base.
type PowerModel struct {
	CPUActiveW float64
	GPUActiveW float64
	BaseW      float64
}

// Power returns the platform's calibrated power model. TDP-class figures
// of the paper's era: the i7-980 is a 130 W part, the Tesla K20 225 W, the
// GT 650M 45 W, the i7-3632QM 35 W.
func (p *Platform) Power() PowerModel {
	switch p.Name {
	case "Hetero-Low":
		return PowerModel{CPUActiveW: 35, GPUActiveW: 45, BaseW: 25}
	case "Hetero-Phi":
		return PowerModel{CPUActiveW: 130, GPUActiveW: 225, BaseW: 80}
	default: // Hetero-High
		return PowerModel{CPUActiveW: 130, GPUActiveW: 225, BaseW: 80}
	}
}

// Energy returns the modeled energy of a timeline on this platform, in
// joules: busy time per device at its active draw plus the makespan at the
// node's base draw. Extra accelerator streams are charged at the GPU rate.
func (p *Platform) Energy(t Timeline) float64 {
	pm := p.Power()
	joules := t.Makespan().Seconds() * pm.BaseW
	joules += t.BusyTime(ResCPU).Seconds() * pm.CPUActiveW
	joules += t.BusyTime(ResGPU).Seconds() * pm.GPUActiveW
	for s := 0; s < t.NumStreams; s++ {
		joules += t.BusyTime(numFixedResources+Resource(s)).Seconds() * pm.GPUActiveW
	}
	return joules
}

// HeteroModern is a what-if preset a decade past the paper: a 64-core
// server CPU paired with an A100-class accelerator. Against Hetero-High
// the accelerator grows ~17x in throughput while its launch latency halves
// — so per-iteration overheads shrink relative to compute far slower than
// throughput grows, which is exactly the regime where the paper's
// low-work-region argument keeps paying. Used by the ext-modern
// experiment.
func HeteroModern() *Platform {
	return &Platform{
		Name: "Hetero-Modern",
		CPU: CPUModel{
			Cores:            64,
			Threads:          128,
			ClockGHz:         2.45,
			CellCost:         10,   // ns; ~12.8 Gcells/s across 128 threads
			DispatchOverhead: 1200, // ns
			SpawnCost:        200,  // ns
			StridePenalty:    1.5,
		},
		GPU: GPUModel{
			SMX:                108, // A100 SMs
			CoresPerSMX:        64,
			WarpSize:           32,
			LaunchLatency:      2000, // ns
			WaveCost:           50,   // ns; ~138 Gcells/s coalesced
			UncoalescedPenalty: 3.0,
		},
		Bus: PCIeModel{
			LatencyPageable:   1500, // ns
			LatencyPinned:     250,  // ns
			BandwidthPageable: 20e9,
			BandwidthPinned:   25e9,
		},
		CopyEngines: 2,
	}
}

// MarshalJSON / config loading: platforms round-trip through JSON so
// experiments can run against user-supplied calibrations
// (lddprun -platform-file).

// LoadPlatform reads a platform description from JSON.
func LoadPlatform(data []byte) (*Platform, error) {
	var p Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("hetsim: parsing platform: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
