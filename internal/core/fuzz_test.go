package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/table"
)

// FuzzParseDepMask checks that the parser never panics and that anything
// it accepts round-trips through String.
func FuzzParseDepMask(f *testing.F) {
	for _, seed := range []string{"{W}", "{W,NW,N,NE}", "w, n", "", "{X}", "{,}", "NW"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseDepMask(s)
		if err != nil {
			return
		}
		if !m.Valid() {
			t.Fatalf("parser accepted invalid mask %08b from %q", m, s)
		}
		back, err := ParseDepMask(m.String())
		if err != nil || back != m {
			t.Fatalf("round trip failed for %q: %v %v", s, back, err)
		}
	})
}

// FuzzHeteroEquivalence drives the full pipeline — classification,
// symmetry reduction, strategy selection, simulated execution — on
// arbitrary masks, shapes and parameters, and checks cell-for-cell
// equality with the sequential reference.
func FuzzHeteroEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), int16(2), int16(3))
	f.Add(uint8(14), uint8(1), uint8(20), int16(-1), int16(-1))
	f.Fuzz(func(t *testing.T, mi, r, c uint8, tsw, tsh int16) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%24) + 1
		cols := int(c%24) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		res, err := SolveHetero(p, Options{TSwitch: int(tsw), TShare: int(tsh)})
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(want, res.Grid) {
			t.Fatalf("mask %s %dx%d tsw=%d tsh=%d: hetero differs", m, rows, cols, tsw, tsh)
		}
	})
}

// FuzzAsyncDeps fuzzes the tile engine's dependency counters over
// arbitrary (mask, rows, cols, tile extent, workers), skewed tiles
// included: construction must never panic, the counters must sum to a
// brute-force count of the distinct (tile, neighbour tile) pairs some cell
// edge of the mask crosses, the queued tiles must be exactly the tiles
// that hold a cell and that no such edge enters, a tile holding no cell
// must be born finished and left out of the live count, and a full solve
// on the same engine must match the sequential oracle cell for cell.
func FuzzAsyncDeps(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(2), uint8(3), uint8(4))
	f.Add(uint8(6), uint8(1), uint8(64), uint8(1), uint8(5), uint8(1))  // 1xN row
	f.Add(uint8(12), uint8(64), uint8(1), uint8(4), uint8(1), uint8(3)) // Nx1 column
	f.Add(uint8(9), uint8(2), uint8(2), uint8(1), uint8(1), uint8(7))   // 2x2, one-cell tiles
	f.Add(uint8(14), uint8(33), uint8(17), uint8(5), uint8(4), uint8(0))
	// Skewed tiles for each of the six masks that read NE with W or NW.
	f.Add(uint8(8), uint8(19), uint8(29), uint8(2), uint8(1), uint8(3))  // {W,NE}, tw = 2
	f.Add(uint8(9), uint8(16), uint8(22), uint8(3), uint8(4), uint8(2))  // {NW,NE}, 17 rows in 4-row tiles
	f.Add(uint8(10), uint8(32), uint8(8), uint8(1), uint8(6), uint8(4))  // {W,NW,NE}, tall and narrow
	f.Add(uint8(12), uint8(8), uint8(39), uint8(4), uint8(2), uint8(1))  // {W,N,NE}, wide and short
	f.Add(uint8(13), uint8(25), uint8(25), uint8(5), uint8(8), uint8(5)) // {NW,N,NE}, 26 rows in 6-row tiles
	f.Add(uint8(14), uint8(63), uint8(63), uint8(8), uint8(8), uint8(8)) // {W,NW,N,NE}, 64x64 in 9x9
	f.Fuzz(func(t *testing.T, mi, r, c, h, w, workers uint8) {
		masks := AllDepMasks()
		m := masks[int(mi)%len(masks)]
		rows := int(r%64) + 1
		cols := int(c%64) + 1
		th, tw := int(h%9)+1, int(w%9)+1
		if m.Has(DepNE) && !skews(m) {
			th = 1
		}
		p := testProblem(m, rows, cols)
		e, nw, err := newTileEngine(context.Background(), m, rows, cols, 1, int(workers%9)+1, th, tw)
		if err != nil {
			t.Fatal(err)
		}
		g := table.NewGrid[int64](rows, cols)
		e.row = newFlatKernel(p, g.RowMajorData(), cols).row

		// Brute force, on the engine's own geometry: every in-bounds cell
		// edge whose ends lie in different tiles names one (neighbour
		// tile, tile) pair.
		tileOf := func(i, j int) int {
			if e.skew {
				return i/e.th*e.tc + (i+j)/e.tw
			}
			return i/e.th*e.tc + j/e.tw
		}
		pairs := map[[2]int]bool{}
		entered := make([]bool, len(e.counters))
		holds := make([]int, len(e.counters))
		offsets := []struct {
			dep    DepMask
			di, dj int
		}{{DepW, 0, -1}, {DepNW, -1, -1}, {DepN, -1, 0}, {DepNE, -1, 1}}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				holds[tileOf(i, j)]++
				for _, o := range offsets {
					ni, nj := i+o.di, j+o.dj
					if !m.Has(o.dep) || ni < 0 || nj < 0 || nj >= cols {
						continue
					}
					if from, to := tileOf(ni, nj), tileOf(i, j); from != to {
						pairs[[2]int{from, to}] = true
						entered[to] = true
					}
				}
			}
		}
		var sum int
		for k := range e.counters {
			if holds[k] > 0 {
				sum += int(e.counters[k].Load())
			}
		}
		if sum != len(pairs) {
			t.Fatalf("mask %s %dx%d %s: counters sum to %d, want %d tile pairs", m, rows, cols, e.executed(), sum, len(pairs))
		}
		queued := make([]bool, len(e.counters))
		for _, tile := range e.sources() {
			queued[tile] = true
		}
		live := 0
		for k := range queued {
			if holds[k] == 0 {
				if queued[k] || e.counters[k].Load() != -1 {
					t.Fatalf("mask %s %dx%d %s: empty tile %d queued=%v with counter %d, want born finished",
						m, rows, cols, e.executed(), k, queued[k], e.counters[k].Load())
				}
				continue
			}
			live++
			if queued[k] == entered[k] {
				t.Fatalf("mask %s %dx%d %s: tile %d queued=%v but entered by an edge=%v", m, rows, cols, e.executed(), k, queued[k], entered[k])
			}
		}
		if e.live != live {
			t.Fatalf("mask %s %dx%d %s: engine counts %d live tiles, want the %d that hold a cell", m, rows, cols, e.executed(), e.live, live)
		}

		want, err := Solve(p)
		if err != nil {
			t.Skip()
		}
		e.startLoops()
		var wg sync.WaitGroup
		wg.Add(nw)
		for k := 0; k < nw; k++ {
			go func(k int) {
				defer wg.Done()
				e.work(k)
			}(k)
		}
		wg.Wait()
		if !table.EqualComparable(want, g) {
			t.Fatalf("mask %s %dx%d %s workers=%d: tile engine differs from oracle", m, rows, cols, e.executed(), nw)
		}
	})
}
