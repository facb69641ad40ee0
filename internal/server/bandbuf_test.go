package server_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// oracleBand is the band request for block rows [r0, r1) x cols
// [c0, c1) of req's table, with the halos api.HaloSpec demands sliced
// from the sequential oracle, and the oracle's digest of the block.
func oracleBand(t *testing.T, req *api.SolveRequest, m lddp.DepMask, r0, r1, c0, c1 int) (*api.BandRequest, string) {
	t.Helper()
	oracle, err := core.Solve(mustBuild(t, req))
	if err != nil {
		t.Fatal(err)
	}
	band := &api.BandRequest{
		Rows: req.Rows, Cols: req.Cols, Row0: r0, Row1: r1, Col0: c0, Col1: c1,
		Mask: req.Mask, Workload: req.Workload,
	}
	h := api.HaloSpec(m, req.Rows, req.Cols, r0, r1, c0, c1)
	for j := h.NorthLo; j < h.NorthLo+h.NorthLen; j++ {
		band.HaloNorth = append(band.HaloNorth, oracle.At(r0-1, j))
	}
	band.NorthLo = h.NorthLo
	for i := r0; i < r0+h.WestLen; i++ {
		band.HaloWest = append(band.HaloWest, oracle.At(i, c0-1))
	}
	for i := r0; i < r0+h.EastLen; i++ {
		band.HaloEast = append(band.HaloEast, oracle.At(i, c1))
	}
	var block []int64
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			block = append(block, oracle.At(i, j))
		}
	}
	return band, server.DigestCells(r1-r0, c1-c0, block)
}

// TestBandBufferStaleCells: a band solve computes into a reused buffer
// whose old cells are whatever the last block left there. Filled with
// garbage instead, the buffer must still solve every mask's interior
// block to the oracle's block digest, on one worker (one whole-block
// tile) and on two (tiles, skewed under the masks that read NE with W
// or NW), so the engine never reads a cell of the block before writing
// it.
func TestBandBufferStaleCells(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewPCG(7, 11))
	for _, workers := range []int{1, 2} {
		s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lddp.AllDepMasks() {
			req := &api.SolveRequest{Rows: 40, Cols: 530, Mask: m.String(), Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 0x5a1e}}
			band, want := oracleBand(t, req, m, 11, 29, 7, 520)
			if _, err := srv.ValidateBandRequest(band); err != nil {
				t.Fatalf("mask %s: %v", m, err)
			}
			block, err := server.BlockProblem(band)
			if err != nil {
				t.Fatalf("mask %s: %v", m, err)
			}
			cells := make([]int64, block.Rows*block.Cols)
			for i := range cells {
				cells[i] = int64(rng.Uint64())
			}
			sub, err := lddp.SubmitInto(context.Background(), s, block, cells)
			if err != nil {
				t.Fatalf("mask %s: %v", m, err)
			}
			g, err := sub.Wait()
			if err != nil {
				t.Fatalf("mask %s: %v", m, err)
			}
			if &g.RowMajorData()[0] != &cells[0] {
				t.Fatalf("mask %s: the grid is not built over the caller's cells", m)
			}
			if got := server.DigestCells(block.Rows, block.Cols, cells); got != want {
				t.Errorf("%d workers, mask %s: block over garbage digests to %s, oracle %s", workers, m, got, want)
			}
		}
		s.Close()
	}
}

// TestBandBufferCancelRace runs band solves that a tiny deadline cancels
// mid-run alongside band solves that run to the end, under both codecs,
// all on one node whose block buffers come from one pool. A canceled run's buffer must
// never go back to the pool, and a finished one only after its response
// is written, so under -race no two solves ever touch one buffer, and
// every finished block lands in the client exactly as the oracle has
// it.
func TestBandBufferCancelRace(t *testing.T) {
	_, ts, jsonClient := newTestService(t, server.Config{Workers: 2})
	clients := []*client.Client{newCodecClient(t, ts, client.WithCodec(client.CodecBinary)), jsonClient}
	const side = 512
	req := &api.SolveRequest{Rows: side, Cols: side, Mask: "W,NW,N", Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: 3}}
	band, want := oracleBand(t, req, lddp.DepW|lddp.DepNW|lddp.DepN, 0, side, 0, side)
	var wg sync.WaitGroup
	var canceled atomic.Int64
	for g := range 6 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := range 4 {
				c := clients[(g/2+round)%2]
				breq := *band
				if g%2 == 1 {
					breq.DeadlineMS = int64(1 + (g+round)%3)
				}
				cells := make([]int64, side*side)
				_, err := c.SolveBand(context.Background(), &breq, func() ([]int64, int) { return cells, side })
				if g%2 == 1 {
					// Canceled mid-run, or finished within its deadline.
					if errors.Is(err, client.ErrTimeout) {
						canceled.Add(1)
					}
					continue
				}
				if err != nil {
					t.Errorf("band solve %d/%d: %v", g, round, err)
					return
				}
				if got := server.DigestCells(side, side, cells); got != want {
					t.Errorf("band solve %d/%d: landed cells digest to %s, oracle %s", g, round, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d of 12 deadline-bound band solves canceled", canceled.Load())
}
