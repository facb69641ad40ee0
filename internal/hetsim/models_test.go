package hetsim

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"
)

func TestCPURegionDuration(t *testing.T) {
	c := CPUModel{Threads: 4, CellCost: 10, DispatchOverhead: 100}
	tests := []struct {
		cells int
		want  time.Duration
	}{
		{0, 0},
		{1, 110},    // dispatch + ceil(1/4)*10
		{4, 110},    // one cell per thread
		{5, 120},    // ceil(5/4)=2 waves of cells
		{400, 1100}, // 100 + 100*10
	}
	for _, tt := range tests {
		if got := c.RegionDuration(tt.cells, true); got != tt.want {
			t.Errorf("RegionDuration(%d) = %v, want %v", tt.cells, got, tt.want)
		}
	}
}

func TestCPUStridePenalty(t *testing.T) {
	c := CPUModel{Threads: 1, CellCost: 10, StridePenalty: 1.5}
	cont := c.RegionDuration(100, true)
	strided := c.RegionDuration(100, false)
	if strided <= cont {
		t.Errorf("strided %v should exceed contiguous %v", strided, cont)
	}
	if want := time.Duration(1500); strided != want {
		t.Errorf("strided = %v, want %v", strided, want)
	}
}

func TestCPUStridePenaltyBelowOneIsIgnored(t *testing.T) {
	c := CPUModel{Threads: 1, CellCost: 10, StridePenalty: 0.5}
	if got, want := c.RegionDuration(10, false), time.Duration(100); got != want {
		t.Errorf("penalty<1 not clamped: got %v, want %v", got, want)
	}
}

func TestCPUThreadPerCellCostsMore(t *testing.T) {
	c := HeteroHigh().CPU
	chunked := c.RegionDuration(1000, true)
	perCell := c.ThreadPerCellDuration(1000, true)
	if perCell <= chunked {
		t.Errorf("thread-per-cell %v should exceed chunked %v", perCell, chunked)
	}
}

func TestCPUZeroThreadsClamped(t *testing.T) {
	c := CPUModel{Threads: 0, CellCost: 10}
	if got, want := c.RegionDuration(5, true), time.Duration(50); got != want {
		t.Errorf("RegionDuration with 0 threads = %v, want %v", got, want)
	}
}

func TestGPUKernelDuration(t *testing.T) {
	g := GPUModel{SMX: 2, CoresPerSMX: 100, LaunchLatency: 1000, WaveCost: 50, UncoalescedPenalty: 4}
	tests := []struct {
		cells     int
		coalesced bool
		want      time.Duration
	}{
		{0, true, 0},
		{1, true, 1050},    // launch + the one-wave floor
		{200, true, 1050},  // exactly one wave
		{300, true, 1075},  // one and a half waves
		{400, true, 1100},  // two waves
		{200, false, 1200}, // one wave at 4x
	}
	for _, tt := range tests {
		if got := g.KernelDuration(tt.cells, tt.coalesced); got != tt.want {
			t.Errorf("KernelDuration(%d, %v) = %v, want %v", tt.cells, tt.coalesced, got, tt.want)
		}
	}
}

func TestGPULanesClamped(t *testing.T) {
	g := GPUModel{SMX: 0, CoresPerSMX: 0}
	if g.Lanes() != 1 {
		t.Errorf("Lanes() = %d, want clamp to 1", g.Lanes())
	}
}

func TestPCIeTransferDuration(t *testing.T) {
	p := PCIeModel{
		LatencyPageable: 3000, LatencyPinned: 800,
		BandwidthPageable: 1e9, BandwidthPinned: 2e9,
	}
	if got := p.TransferDuration(0, true); got != 0 {
		t.Errorf("zero bytes should cost 0, got %v", got)
	}
	// 1e6 bytes at 1 GB/s = 1 ms + 3 us latency.
	if got, want := p.TransferDuration(1_000_000, false), 3*time.Microsecond+time.Millisecond; got != want {
		t.Errorf("pageable 1MB = %v, want %v", got, want)
	}
	// Pinned is strictly faster for any size.
	for _, n := range []int{1, 64, 4096, 1 << 20} {
		if p.TransferDuration(n, true) >= p.TransferDuration(n, false) {
			t.Errorf("pinned not faster for %d bytes", n)
		}
	}
}

func TestPlatformPresetsValidate(t *testing.T) {
	for _, p := range Platforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPlatformGeometryMatchesPaper(t *testing.T) {
	high := HeteroHigh()
	if got := high.GPU.Lanes(); got != 2496 {
		t.Errorf("K20 lanes = %d, want 2496 (13 SMX x 192)", got)
	}
	if high.CPU.Cores != 6 || high.CPU.Threads != 12 {
		t.Errorf("i7-980 = %d cores/%d threads, want 6/12", high.CPU.Cores, high.CPU.Threads)
	}
	low := HeteroLow()
	if got := low.GPU.Lanes(); got != 384 {
		t.Errorf("GT650M lanes = %d, want 384 (2 SMX x 192)", got)
	}
	if low.CPU.Cores != 4 || low.CPU.Threads != 8 {
		t.Errorf("i7-3632QM = %d cores/%d threads, want 4/8", low.CPU.Cores, low.CPU.Threads)
	}
}

func TestPlatformRelativeThroughput(t *testing.T) {
	// The calibration intends the K20 to be roughly an order of magnitude
	// above its CPU in peak throughput, and the GT650M a few-x above its
	// weaker CPU — which is what makes the GPU the primary engine and the
	// CPU a profitable helper, as in the paper's measurements.
	high := HeteroHigh()
	ratio := high.GPU.Throughput() / high.CPU.Throughput()
	if ratio < 5 || ratio > 15 {
		t.Errorf("Hetero-High GPU/CPU throughput ratio = %.2f, want in [5,15]", ratio)
	}
	low := HeteroLow()
	ratioLow := low.GPU.Throughput() / low.CPU.Throughput()
	if ratioLow < 2 || ratioLow > 8 {
		t.Errorf("Hetero-Low GPU/CPU throughput ratio = %.2f, want in [2,8]", ratioLow)
	}
}

func TestPlatformByName(t *testing.T) {
	p, err := PlatformByName("Hetero-High")
	if err != nil || p.Name != "Hetero-High" {
		t.Errorf("PlatformByName(Hetero-High) = %v, %v", p, err)
	}
	if _, err := PlatformByName("nope"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestPlatformValidateCatchesBadValues(t *testing.T) {
	p := HeteroHigh()
	p.GPU.UncoalescedPenalty = 0.5
	p.CPU.Threads = 0
	if err := p.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

// Property: kernel duration is monotone in cells.
func TestGPUKernelMonotoneProperty(t *testing.T) {
	g := HeteroHigh().GPU
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return g.KernelDuration(x, true) <= g.KernelDuration(y, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CPU region duration is monotone in cells and never cheaper than
// sequential single-thread duration divided by thread count.
func TestCPURegionMonotoneProperty(t *testing.T) {
	c := HeteroLow().CPU
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.RegionDuration(x, true) <= c.RegionDuration(y, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transfer duration is monotone in bytes for both memory kinds.
func TestPCIeMonotoneProperty(t *testing.T) {
	p := HeteroHigh().Bus
	f := func(a, b uint32, pinned bool) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.TransferDuration(x, pinned) <= p.TransferDuration(y, pinned)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceString(t *testing.T) {
	tests := []struct {
		r    Resource
		want string
	}{
		{ResCPU, "cpu"}, {ResGPU, "gpu"}, {ResCopyH2D, "h2d"}, {ResCopyD2H, "d2h"},
		{numFixedResources, "stream0"}, {numFixedResources + 1, "stream1"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Resource(%d).String() = %q, want %q", int(tt.r), got, tt.want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpCompute.String() != "compute" || OpTransfer.String() != "transfer" || OpSync.String() != "sync" {
		t.Error("OpKind strings wrong")
	}
	if OpKind(99).String() != "unknown" {
		t.Error("unknown OpKind string wrong")
	}
}

func TestHeteroPhiPreset(t *testing.T) {
	phi := HeteroPhi()
	if err := phi.Validate(); err != nil {
		t.Fatal(err)
	}
	if phi.Name != "Hetero-Phi" {
		t.Errorf("name = %q", phi.Name)
	}
	if got := phi.GPU.Lanes(); got != 240 {
		t.Errorf("Phi lanes = %d, want 240 (60 cores x 4 threads)", got)
	}
	// The Phi sits between the host CPU and the K20 in peak throughput.
	high := HeteroHigh()
	if !(phi.GPU.Throughput() > high.CPU.Throughput() && phi.GPU.Throughput() < high.GPU.Throughput()) {
		t.Errorf("Phi throughput %.2e not between CPU %.2e and K20 %.2e",
			phi.GPU.Throughput(), high.CPU.Throughput(), high.GPU.Throughput())
	}
	// Offload regions start slower than CUDA kernel launches.
	if phi.GPU.LaunchLatency <= high.GPU.LaunchLatency {
		t.Error("Phi offload latency should exceed the K20 kernel launch latency")
	}
	if p, err := PlatformByName("Hetero-Phi"); err != nil || p.Name != "Hetero-Phi" {
		t.Errorf("PlatformByName(Hetero-Phi) = %v, %v", p, err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	p := HeteroHigh()
	s := NewSim(p)
	s.Submit(Op{Resource: ResCPU, Kind: OpCompute, Duration: time.Second})
	s.Submit(Op{Resource: ResGPU, Kind: OpCompute, Duration: 2 * time.Second})
	tl := s.Timeline()
	// Makespan 2s: base 2*80 + cpu 1*130 + gpu 2*225 = 740 J.
	if got := p.Energy(tl); got < 739.9 || got > 740.1 {
		t.Errorf("energy = %v J, want 740", got)
	}
	var empty Timeline
	if p.Energy(empty) != 0 {
		t.Error("empty timeline should cost 0 J")
	}
}

func TestEnergyChargesExtraStreams(t *testing.T) {
	p := HeteroHigh()
	s := NewSim(p)
	st := s.NewNamedStream("accel2")
	s.Submit(Op{Resource: st, Kind: OpCompute, Duration: time.Second})
	// base 1*80 + stream 1*225 = 305 J.
	if got := p.Energy(s.Timeline()); got < 304.9 || got > 305.1 {
		t.Errorf("energy = %v J, want 305", got)
	}
}

func TestPowerModelsPerPlatform(t *testing.T) {
	if hw := HeteroHigh().Power(); hw.GPUActiveW != 225 || hw.CPUActiveW != 130 {
		t.Errorf("Hetero-High power = %+v", hw)
	}
	if lw := HeteroLow().Power(); lw.GPUActiveW != 45 || lw.CPUActiveW != 35 {
		t.Errorf("Hetero-Low power = %+v", lw)
	}
}

func TestChunkedKernelDuration(t *testing.T) {
	g := HeteroHigh().GPU
	// chunk=1 is exactly the thread-per-cell model.
	for _, cells := range []int{1, 100, 5000, 100000} {
		if g.ChunkedKernelDuration(cells, 1, true) != g.KernelDuration(cells, true) {
			t.Errorf("chunk=1 differs from thread-per-cell at %d cells", cells)
		}
	}
	// Below device width, chunking strictly serializes.
	if g.ChunkedKernelDuration(2000, 8, true) <= g.KernelDuration(2000, true) {
		t.Error("chunking under-width work should be slower")
	}
	// Even far above device width, chunking can never win: the same cells
	// run at the same per-lane rate, only with fewer independent threads.
	if g.ChunkedKernelDuration(1_000_000, 8, true) < g.KernelDuration(1_000_000, true) {
		t.Error("chunking should never beat thread-per-cell")
	}
	if g.ChunkedKernelDuration(0, 4, true) != 0 {
		t.Error("zero cells should cost 0")
	}
	if g.ChunkedKernelDuration(100, 0, true) != g.KernelDuration(100, true) {
		t.Error("chunk<1 should clamp to thread-per-cell")
	}
}

func TestHeteroModernPreset(t *testing.T) {
	m := HeteroModern()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.GPU.Lanes(); got != 6912 {
		t.Errorf("A100 lanes = %d, want 6912", got)
	}
	high := HeteroHigh()
	// A decade of scaling: the accelerator grows >10x in throughput while
	// launch latency shrinks by less than 2x.
	if m.GPU.Throughput() < 10*high.GPU.Throughput() {
		t.Error("modern GPU should be >=10x the K20")
	}
	if m.GPU.LaunchLatency < high.GPU.LaunchLatency/2 {
		t.Error("launch latency should not shrink as fast as throughput grows")
	}
	if p, err := PlatformByName("Hetero-Modern"); err != nil || p.Name != "Hetero-Modern" {
		t.Errorf("PlatformByName(Hetero-Modern) = %v, %v", p, err)
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	for _, p := range append(Platforms(), HeteroPhi(), HeteroModern()) {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadPlatform(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if back.Name != p.Name || back.GPU.Lanes() != p.GPU.Lanes() ||
			back.CPU.CellCost != p.CPU.CellCost || back.CopyEngines != p.CopyEngines {
			t.Errorf("%s: round trip lost fields", p.Name)
		}
	}
}

func TestLoadPlatformRejectsInvalid(t *testing.T) {
	if _, err := LoadPlatform([]byte(`{"Name":"x"}`)); err == nil {
		t.Error("incomplete platform should fail validation")
	}
	if _, err := LoadPlatform([]byte(`{nope`)); err == nil {
		t.Error("bad JSON should error")
	}
}
