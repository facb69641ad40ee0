package hetsim_test

import (
	"fmt"
	"time"

	"repro/internal/hetsim"
)

// A minimal copy/compute pipeline: the transfer for iteration 2 overlaps
// the kernel of iteration 1 because the DMA engine is its own queue.
func ExampleSim() {
	s := hetsim.NewSim(hetsim.HeteroHigh())
	up1 := s.Submit(hetsim.Op{Resource: hetsim.ResCopyH2D, Duration: 3 * time.Microsecond, Label: "h2d:1"})
	k1 := s.Submit(hetsim.Op{Resource: hetsim.ResGPU, Duration: 5 * time.Microsecond, Label: "k1"}, up1)
	up2 := s.Submit(hetsim.Op{Resource: hetsim.ResCopyH2D, Duration: 3 * time.Microsecond, Label: "h2d:2"})
	k2 := s.Submit(hetsim.Op{Resource: hetsim.ResGPU, Duration: 5 * time.Microsecond, Label: "k2"}, up2)
	_ = k1
	fmt.Println(s.Timeline().Records[k2].End, s.Makespan())
	// Output:
	// 13µs 13µs
}

// The platform presets mirror the paper's testbeds.
func ExamplePlatformByName() {
	p, _ := hetsim.PlatformByName("Hetero-High")
	fmt.Println(p.GPU.Lanes(), p.CPU.Cores)
	// Output:
	// 2496 6
}
