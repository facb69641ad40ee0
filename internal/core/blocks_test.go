package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestBlocksOrderHalos runs every mask's block DAG on ragged cuts, one-row
// and one-column blocks included: the blocks must tile the table exactly
// once, and a block may start only when every cell its band request's
// halos hold (the row above, one column wider on the side NW or NE reads,
// and the columns beside it that W, NW or NE read) is in a block that has
// run.
func TestBlocksOrderHalos(t *testing.T) {
	for _, m := range AllDepMasks() {
		for _, c := range []struct{ rows, cols, th, tw int }{
			{13, 17, 4, 5}, {7, 9, 1, 2}, {6, 11, 2, 1}, {5, 5, 5, 5}, {1, 8, 1, 3},
		} {
			b, err := NewBlocks(m, c.rows, c.cols, c.th, c.tw)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			done := make([]bool, c.rows*c.cols)
			ran := 0
			err = b.Run(context.Background(), 3, func(_ context.Context, blk Block) error {
				mu.Lock()
				defer mu.Unlock()
				need := func(i, j int) {
					if i >= 0 && j >= 0 && j < c.cols && !done[i*c.cols+j] {
						t.Errorf("mask %s %v: block %+v starts before halo cell (%d,%d) is in", m, c, blk, i, j)
					}
				}
				lo, hi := blk.Col0, blk.Col1-1
				if m.Has(DepNW) {
					lo--
				}
				if m.Has(DepNE) {
					hi++
				}
				if m&(DepNW|DepN|DepNE) != 0 {
					for j := lo; j <= hi; j++ {
						need(blk.Row0-1, j)
					}
				}
				for i := blk.Row0; i < blk.Row1; i++ {
					if m&(DepW|DepNW) != 0 {
						need(i, blk.Col0-1)
					}
					if m.Has(DepNE) {
						need(i, blk.Col1)
					}
					for j := blk.Col0; j < blk.Col1; j++ {
						if done[i*c.cols+j] {
							t.Errorf("mask %s %v: cell (%d,%d) in two blocks", m, c, i, j)
						}
						done[i*c.cols+j] = true
					}
				}
				ran++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran != b.Bands*b.Phases {
				t.Errorf("mask %s %v: %d blocks ran, plan has %d x %d", m, c, ran, b.Bands, b.Phases)
			}
			for k, d := range done {
				if !d {
					t.Fatalf("mask %s %v: cell (%d,%d) in no block", m, c, k/c.cols, k%c.cols)
				}
			}
		}
	}
}

// TestBlocksHookFailureStopsRun: a failing hook stops every worker, none
// is left waiting for a ready block, and its error is Run's; the ctx the
// other hooks hold ends with it.
func TestBlocksHookFailureStopsRun(t *testing.T) {
	boom := errors.New("boom")
	b, err := NewBlocks(DepW|DepN, 40, 40, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := 0
	err = b.Run(context.Background(), 4, func(ctx context.Context, blk Block) error {
		if blk.Band == 2 && blk.Phase == 1 {
			return boom
		}
		if blk.Band > 2 {
			<-ctx.Done() // waits for the failure
		}
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the hook's error", err)
	}
	if ran >= 64 {
		t.Errorf("%d of 64 blocks ran after a failure", ran)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err = NewBlocks(DepN|DepNE, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(ctx, 2, func(context.Context, Block) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on an ended ctx = %v, want context.Canceled", err)
	}
}
