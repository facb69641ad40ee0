package core

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// SolveTiledContext fills the DP table with square tiles of side tile, the
// cache-efficient tiled scheme of the CPU-only line of work the paper
// builds on (Chowdhury & Ramachandran's CMP algorithms): each tile is
// filled row-major for locality, and tiles run on the dependency-driven
// tile engine (async.go) the moment the neighbour tiles they read are
// done. A non-top-row cell's NE neighbour can live in the tile to the
// east, which no forward tile order satisfies, so the six masks that read
// NE with W or NW get tile x tile squares in (i, u = i + j) coordinates
// when tile >= 2 (async.go), where NE points straight up, and the other
// masks containing NE, {NE} and {N,NE}, get 1 x tile strips. A tile that
// covers the whole table runs as one tile under every mask.
//
// The context is polled once per tile row. Options carries the worker
// count (Options.NativeWorkers; zero selects min(GOMAXPROCS, NumCPU)),
// which Validate checks, and the optional Tracer. A canceled solve
// returns a nil grid and a *Canceled error.
func SolveTiledContext[T any](ctx context.Context, p *Problem[T], tile int, opts Options) (*table.Grid[T], error) {
	if tile < 1 {
		return nil, fmt.Errorf("core: tile size %d < 1", tile)
	}
	return solveTiles(ctx, "tiled", p, tile, opts)
}

// deriveBlockMask lifts a cell-level contributing set to tiles of
// tileRows x tileCols cells: for each cell dependency offset, the union of
// tile offsets it lands in from some cell of the tile, excluding the tile
// itself. Masks containing NE need tileRows == 1: a taller tile's
// non-top-row NE reads land in the tile to the east. Since the six masks
// that read NE with W or NW are cut in (i, u = i + j) instead (skewDeps),
// the one-row rule covers only {NE} and {N,NE}.
//
//	cell W  (0,-1)  -> tile W
//	cell NW (-1,-1) -> tiles NW, W (tileRows > 1), N (tileCols > 1)
//	cell N  (-1,0)  -> tile N
//	cell NE (-1,1)  -> tiles NE, N (tileCols > 1)
func deriveBlockMask(m DepMask, tileRows, tileCols int) DepMask {
	var out DepMask
	if m.Has(DepW) {
		out |= DepW
	}
	if m.Has(DepNW) {
		out |= DepNW
		if tileRows > 1 {
			out |= DepW
		}
		if tileCols > 1 {
			out |= DepN
		}
	}
	if m.Has(DepN) {
		out |= DepN
	}
	if m.Has(DepNE) {
		if tileRows > 1 {
			panic("core: NE-containing masks require 1-row tiles")
		}
		out |= DepNE
		if tileCols > 1 {
			out |= DepN
		}
	}
	return out
}

// DefaultTile returns the largest tile size whose block (tile x tile cells
// at bytesPerCell each) still fits a typical per-core L2 slice of 256 KiB.
func DefaultTile(bytesPerCell int) int {
	if bytesPerCell <= 0 {
		bytesPerCell = 8
	}
	const budget = 256 << 10
	t := 1
	for (t+1)*(t+1)*bytesPerCell <= budget {
		t++
	}
	return t
}
