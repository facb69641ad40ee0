package hetsim

import "fmt"

// Resource identifies an execution queue in the simulated platform. Each
// resource executes the operations submitted to it strictly in submission
// order; distinct resources proceed concurrently subject to dependency
// edges.
//
// The fixed resources model the devices of a heterogeneous node. Additional
// stream resources (see Sim.NewStream) model extra CUDA streams: in-order
// queues that share no implicit ordering with any other queue.
type Resource int

const (
	// ResCPU is the host CPU. One parallel-for region at a time, mirroring
	// an OpenMP-style fork/join execution model.
	ResCPU Resource = iota
	// ResGPU is the GPU compute engine. One kernel at a time, mirroring a
	// single in-order CUDA stream used for kernels.
	ResGPU
	// ResCopyH2D is the host-to-device DMA engine.
	ResCopyH2D
	// ResCopyD2H is the device-to-host DMA engine. On platforms with a
	// single copy engine (Platform.CopyEngines == 1) the simulator folds
	// this onto ResCopyH2D, serializing all transfers.
	ResCopyD2H

	numFixedResources
)

// String returns a short human-readable resource name.
func (r Resource) String() string {
	switch r {
	case ResCPU:
		return "cpu"
	case ResGPU:
		return "gpu"
	case ResCopyH2D:
		return "h2d"
	case ResCopyD2H:
		return "d2h"
	default:
		if r >= numFixedResources {
			return fmt.Sprintf("stream%d", int(r-numFixedResources))
		}
		return fmt.Sprintf("resource(%d)", int(r))
	}
}
