// End-to-end differential suite for the network boundary: lddpd's
// handler stack runs in-process behind httptest, the public client
// drives it, and every returned table must match the sequential oracle
// byte for byte — the wire-level extension of the executor conformance
// suite in internal/core/conformance_test.go, sharing its adversarial
// instance family (MixProblem) and shape matrix.
package server_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// e2eShapes mirrors the conformance suite's adversarial dimensions:
// degenerate rows and columns, the empty-front publish boundary
// ({101,1}), extreme aspect ratios, primes, and a square control.
var e2eShapes = [][2]int{
	{1, 1},
	{1, 33},
	{33, 1},
	{101, 1},
	{3, 101},
	{101, 3},
	{31, 37},
	{48, 48},
}

// newTestService boots a full service stack: Server, HTTP listener, and
// client with retries disabled (a differential test must see the first
// answer, not a retried one). Extra client options (e.g. WithCodec) are
// passed through.
func newTestService(t *testing.T, cfg server.Config, opts ...client.Option) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := newCodecClient(t, ts, append([]client.Option{}, opts...)...)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, c
}

// newCodecClient attaches one more client (e.g. a binary-codec one) to
// an already-running test service.
func newCodecClient(t *testing.T, ts *httptest.Server, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.New(ts.URL, append([]client.Option{client.WithRetry(client.RetryPolicy{MaxAttempts: 1})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// e2eCodecs enumerates the wire encodings the differential matrix runs
// under; order matters where a shared service's cache is warm for the
// second codec (turning that pass into a cached-replay differential).
func e2eCodecs(t *testing.T, ts *httptest.Server) []struct {
	name string
	c    *client.Client
} {
	t.Helper()
	return []struct {
		name string
		c    *client.Client
	}{
		{"json", newCodecClient(t, ts)},
		{"binary", newCodecClient(t, ts, client.WithCodec(client.CodecBinary))},
	}
}

// reportMismatch renders a reproducible failure: the instance
// coordinates plus the first differing cell, like the conformance
// suite's helper.
func reportMismatch(t *testing.T, what string, seed int64, m lddp.DepMask, rows, cols int, want *lddp.Grid[int64], got [][]int64) {
	t.Helper()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if want.At(i, j) != got[i][j] {
				t.Errorf("%s: mask=%s shape=%dx%d seed=%d: first mismatch at (%d,%d): got %d, want %d",
					what, m, rows, cols, seed, i, j, got[i][j], want.At(i, j))
				return
			}
		}
	}
	t.Errorf("%s: mask=%s shape=%dx%d seed=%d: grids differ but no cell mismatch (dimension mismatch?)",
		what, m, rows, cols, seed)
}

// checkDifferential runs one request through the wire and demands exact
// equality (cells and digest) against the sequential oracle of the
// identical server-side instance.
func checkDifferential(t *testing.T, c *client.Client, req *api.SolveRequest, seed int64, m lddp.DepMask) {
	t.Helper()
	req.ReturnCells = true
	resp, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Errorf("solve: mask=%s shape=%dx%d seed=%d: %v", m, req.Rows, req.Cols, seed, err)
		return
	}
	if resp.ID <= 0 {
		t.Errorf("mask=%s shape=%dx%d: solve ID %d not assigned", m, req.Rows, req.Cols, resp.ID)
	}
	oracle, err := core.Solve(mustBuild(t, req))
	if err != nil {
		t.Fatalf("oracle: mask=%s shape=%dx%d: %v", m, req.Rows, req.Cols, err)
	}
	if want := server.DigestGrid(oracle); resp.Digest != want {
		t.Errorf("digest: mask=%s shape=%dx%d seed=%d: got %s, want %s", m, req.Rows, req.Cols, seed, resp.Digest, want)
	}
	if len(resp.Cells) != req.Rows {
		t.Errorf("mask=%s shape=%dx%d: response has %d rows, want %d", m, req.Rows, req.Cols, len(resp.Cells), req.Rows)
		return
	}
	for i := range resp.Cells {
		if len(resp.Cells[i]) != req.Cols {
			t.Errorf("mask=%s shape=%dx%d: response row %d has %d cols, want %d",
				m, req.Rows, req.Cols, i, len(resp.Cells[i]), req.Cols)
			return
		}
	}
	for i := 0; i < req.Rows; i++ {
		for j := 0; j < req.Cols; j++ {
			if oracle.At(i, j) != resp.Cells[i][j] {
				reportMismatch(t, "e2e", seed, m, req.Rows, req.Cols, oracle, resp.Cells)
				return
			}
		}
	}
}

// mustBuild rebuilds the server-side instance locally for the oracle.
func mustBuild(t *testing.T, req *api.SolveRequest) *lddp.Problem[int64] {
	t.Helper()
	p, err := server.BuildProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestE2EDifferentialAllMasks is the full wire-boundary matrix: all 15
// dependency masks x the adversarial shapes, "mix" workload, exact
// equality against the sequential oracle — run under both codecs
// against one shared service, so the JSON pass populates the result
// cache and the binary pass doubles as a cached-replay differential.
func TestE2EDifferentialAllMasks(t *testing.T) {
	srv, ts, _ := newTestService(t, server.Config{Workers: 4})
	const seed = int64(0x5eed_1dd9)
	for _, codec := range e2eCodecs(t, ts) {
		t.Run(codec.name, func(t *testing.T) {
			for _, m := range lddp.AllDepMasks() {
				for _, d := range e2eShapes {
					req := &api.SolveRequest{
						Rows: d[0], Cols: d[1],
						Mask:     m.String(),
						Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
					}
					checkDifferential(t, codec.c, req, seed, m)
				}
			}
		})
	}
	// The second pass repeated the first's requests byte for byte: the
	// whole matrix must have replayed from cache, and the differential
	// above already proved the replays exact.
	if stats := srv.CacheStats(); stats.Hits < int64(len(lddp.AllDepMasks())*len(e2eShapes)) {
		t.Errorf("cache hits = %d across the repeated matrix, want at least %d",
			stats.Hits, len(lddp.AllDepMasks())*len(e2eShapes))
	}
}

// TestE2EDifferentialAsyncStrategy runs the wire boundary with the
// "async" strategy knob: every mask on a couple of adversarial shapes
// must come back digest- and cell-identical to the sequential oracle
// when solved by the dependency-driven tile engine's scheduler workload.
func TestE2EDifferentialAsyncStrategy(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 4})
	const seed = int64(0xa51c)
	for _, m := range lddp.AllDepMasks() {
		for _, d := range [][2]int{{1, 33}, {31, 37}, {101, 3}} {
			req := &api.SolveRequest{
				Rows: d[0], Cols: d[1],
				Mask:     m.String(),
				Strategy: "async",
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
			}
			checkDifferential(t, c, req, seed, m)
		}
	}
}

// TestE2EDifferentialSeedSweep re-runs a reduced matrix over several
// seeds so the boundary is not blind to a value-dependent bug one seed
// happens to miss.
func TestE2EDifferentialSeedSweep(t *testing.T) {
	_, _, c := newTestService(t, server.Config{Workers: 4})
	masks := []lddp.DepMask{
		lddp.DepW | lddp.DepN,
		lddp.DepNW,
		lddp.DepW | lddp.DepNE,
		lddp.DepW | lddp.DepNW | lddp.DepN | lddp.DepNE,
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range masks {
			req := &api.SolveRequest{
				Rows: 29, Cols: 43,
				Mask:     m.String(),
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
			}
			checkDifferential(t, c, req, seed, m)
		}
	}
}

// TestE2EDifferentialOtherKinds covers the remaining workload kinds
// through the same oracle: the load kernel, the inline-cells and
// generated cost grids, and the alignment recurrence.
func TestE2EDifferentialOtherKinds(t *testing.T) {
	for _, codecName := range []string{"json", "binary"} {
		t.Run(codecName, func(t *testing.T) {
			// A fresh (cache-disabled) service per codec: every kind must
			// exercise the cold solve path under each encoding — the
			// inline-cost case in particular sends real payload through the
			// binary request frame's cell section.
			opts := []client.Option{}
			if codecName == "binary" {
				opts = append(opts, client.WithCodec(client.CodecBinary))
			}
			_, _, c := newTestService(t, server.Config{Workers: 4, CacheBytes: -1}, opts...)
			t.Run("serve", func(t *testing.T) {
				for _, m := range []lddp.DepMask{lddp.DepW | lddp.DepN, lddp.DepNE} {
					req := &api.SolveRequest{
						Rows: 31, Cols: 37, Mask: m.String(),
						Workload: api.WorkloadSpec{Kind: api.KindServe},
					}
					checkDifferential(t, c, req, 0, m)
				}
			})
			t.Run("cost-inline", func(t *testing.T) {
				m := lddp.DepW | lddp.DepNW | lddp.DepN
				cells := server.GeneratedCostCells(7, 19, 23)
				req := &api.SolveRequest{
					Rows: 19, Cols: 23, Mask: m.String(),
					Workload: api.WorkloadSpec{Kind: api.KindCost, Cells: cells},
				}
				checkDifferential(t, c, req, 7, m)
			})
			t.Run("cost-generated", func(t *testing.T) {
				m := lddp.DepN | lddp.DepNE
				req := &api.SolveRequest{
					Rows: 23, Cols: 19, Mask: m.String(),
					Workload: api.WorkloadSpec{Kind: api.KindCost, Seed: 11},
				}
				checkDifferential(t, c, req, 11, m)
			})
			t.Run("align", func(t *testing.T) {
				req := &api.SolveRequest{
					Rows: 40, Cols: 40,
					Workload: api.WorkloadSpec{Kind: api.KindAlign, Seed: 3},
				}
				checkDifferential(t, c, req, 3, server.AlignMask)
			})
		})
	}
}

// TestE2ECacheReplayDifferential: a cached replay must be
// indistinguishable from the cold solve — same digest, byte-identical
// cells — under every codec pairing of cold and warm request.
func TestE2ECacheReplayDifferential(t *testing.T) {
	_, ts, _ := newTestService(t, server.Config{Workers: 4})
	codecs := e2eCodecs(t, ts)
	m := lddp.DepW | lddp.DepNW | lddp.DepNE
	seed := int64(99)
	var cold *api.SolveResponse
	for i, codec := range codecs {
		req := &api.SolveRequest{
			Rows: 31, Cols: 37, Mask: m.String(), ReturnCells: true,
			Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: seed},
		}
		resp, err := codec.c.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s solve: %v", codec.name, err)
		}
		if i == 0 {
			if resp.Cached {
				t.Fatalf("first solve claims to be cached")
			}
			cold = resp
			continue
		}
		if !resp.Cached {
			t.Errorf("%s replay not served from cache", codec.name)
		}
		if resp.Digest != cold.Digest || resp.ID != cold.ID {
			t.Errorf("%s replay: digest/ID %s/%d, want %s/%d", codec.name, resp.Digest, resp.ID, cold.Digest, cold.ID)
		}
		for r := range cold.Cells {
			for j := range cold.Cells[r] {
				if cold.Cells[r][j] != resp.Cells[r][j] {
					t.Fatalf("%s replay cell (%d,%d) = %d, want %d", codec.name, r, j, resp.Cells[r][j], cold.Cells[r][j])
				}
			}
		}
	}
}
