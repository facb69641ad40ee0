package core

import (
	"context"

	"repro/internal/trace"
)

// Blocks is the tile engine over a table cut into rectangular blocks that
// a caller's hook runs whole: the fleet coordinator's plan, in which a
// block is one node's band request. The cut is never skewed: left to
// right for the NE-free masks, mirrored for {NE} and {N,NE}, and one
// full-width block column for the six masks that read NE with W or NW,
// where an NE read lands in the block above, as an N read does. A block
// waits for every block its band request's halos (api.HaloSpec) touch,
// even where no cell edge of a one-row or one-column block crosses.
type Blocks struct {
	// Bands and Phases count the block rows and columns; phase 0 runs
	// first. Executed names the cut: "tiles 512x256", or
	// "tiles 512x256 mirrored" when phases run right to left.
	Bands, Phases int
	Executed      string
	e             *tileEngine
}

// Block is one block as Run's hook gets it: engine worker Worker runs
// block (Band, Phase), rows [Row0, Row1) and columns [Col0, Col1).
type Block struct{ Worker, Band, Phase, Row0, Row1, Col0, Col1 int }

// NewBlocks cuts a rows x cols table under mask m into th x tw blocks.
func NewBlocks(m DepMask, rows, cols, th, tw int) (*Blocks, error) {
	mirror := false
	switch {
	case skews(m):
		m, tw = m&^DepNE|DepN, cols
	case m.Has(DepNE):
		m, mirror = m.MirrorColumns(), true
	}
	// Lifted as for blocks of 2 x 2 or more, the mask names every
	// neighbour block a halo touches.
	e, _, err := newTileEngine(context.Background(), deriveBlockMask(m, 2, 2), rows, cols, 1, 1, th, tw)
	if err != nil {
		return nil, err
	}
	e.mirror = mirror
	return &Blocks{Bands: e.tr, Phases: e.tc, Executed: e.executed(), e: e}, nil
}

// Run runs each block once on workers engine workers (the caller is
// worker 0): hook runs a block after every block it reads, and its
// dependents are released when it returns. The first hook error, or the
// cause of an ended ctx, stops every worker and is Run's error; the ctx
// the hooks get ends with it. A Blocks runs once.
func (b *Blocks) Run(ctx context.Context, workers int, hook func(context.Context, Block) error) error {
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	e := b.e
	e.done = ctx.Done()
	e.tile = func(blk Block) bool {
		if err := hook(ctx, blk); err != nil {
			fail(err)
			return false
		}
		return true
	}
	if err := e.solve(ctx, trace.Meta{Solver: "blocks"}, min(workers, e.live), nil); err != nil {
		return context.Cause(ctx)
	}
	return nil
}
