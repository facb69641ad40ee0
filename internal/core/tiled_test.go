package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func TestSolveTiledMatchesSequentialAllMasks(t *testing.T) {
	for _, m := range AllDepMasks() {
		for _, tile := range []int{1, 3, 8, 64} {
			p := testProblem(m, 19, 27)
			want, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveTiled(p, tile, 4)
			if err != nil {
				t.Fatalf("%s tile=%d: %v", m, tile, err)
			}
			if !table.EqualComparable(want, got) {
				t.Errorf("%s tile=%d: tiled solve differs from sequential", m, tile)
			}
		}
	}
}

func TestSolveTiledOversizedTile(t *testing.T) {
	p := testProblem(DepW|DepN, 10, 10)
	want, _ := Solve(p)
	got, err := SolveTiled(p, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("tile larger than table differs")
	}
}

func TestSolveTiledSingleWorker(t *testing.T) {
	p := testProblem(DepW|DepNE, 33, 17)
	want, _ := Solve(p)
	got, err := SolveTiled(p, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualComparable(want, got) {
		t.Error("single-worker tiled solve differs")
	}
}

func TestSolveTiledRejectsBadTile(t *testing.T) {
	p := testProblem(DepN, 4, 4)
	if _, err := SolveTiled(p, 0, 2); err == nil {
		t.Error("tile 0 should error")
	}
}

func TestSolveTiledValidates(t *testing.T) {
	if _, err := SolveTiled(&Problem[int64]{Rows: 0, Cols: 1, Deps: DepN}, 4, 2); err == nil {
		t.Error("invalid problem should error")
	}
}

// Property: tiled and sequential solves agree for random masks, dims, and
// tile sizes.
func TestSolveTiledProperty(t *testing.T) {
	masks := AllDepMasks()
	f := func(mi, r, c, tl uint8) bool {
		m := masks[int(mi)%len(masks)]
		rows := int(r%25) + 1
		cols := int(c%25) + 1
		tile := int(tl%9) + 1
		p := testProblem(m, rows, cols)
		want, err := Solve(p)
		if err != nil {
			return false
		}
		got, err := SolveTiled(p, tile, 3)
		if err != nil {
			return false
		}
		return table.EqualComparable(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDefaultTile(t *testing.T) {
	t4 := DefaultTile(4)
	t8 := DefaultTile(8)
	if t4 <= t8 {
		t.Errorf("smaller cells should allow bigger tiles: %d vs %d", t4, t8)
	}
	for _, bpc := range []int{0, 4, 8, 16} {
		tile := DefaultTile(bpc)
		if tile < 8 {
			t.Errorf("DefaultTile(%d) = %d implausibly small", bpc, tile)
		}
		eff := bpc
		if eff == 0 {
			eff = 8
		}
		if tile*tile*eff > 256<<10 {
			t.Errorf("DefaultTile(%d) = %d exceeds the L2 budget", bpc, tile)
		}
		if (tile+1)*(tile+1)*eff <= 256<<10 {
			t.Errorf("DefaultTile(%d) = %d is not maximal", bpc, tile)
		}
	}
}

func TestDeriveBlockMask(t *testing.T) {
	cases := []struct {
		in                 DepMask
		tileRows, tileCols int
		want               DepMask
	}{
		{DepN, 8, 8, DepN},
		{DepW | DepN, 8, 8, DepW | DepN},
		{DepNW, 8, 8, DepW | DepNW | DepN},
		{DepNW | DepN, 8, 8, DepW | DepNW | DepN},
		{DepNW, 1, 8, DepNW | DepN},
		{DepN | DepNE, 1, 8, DepN | DepNE},
		{DepW | DepNE, 1, 8, DepW | DepN | DepNE},
		{DepW | DepNW | DepN | DepNE, 1, 8, DepW | DepNW | DepN | DepNE},
		// One-column tiles: every NW and NE read leaves through a corner.
		{DepNW, 8, 1, DepW | DepNW},
		{DepNW, 1, 1, DepNW},
		{DepNE, 1, 1, DepNE},
		{DepW | DepNE, 1, 1, DepW | DepNE},
	}
	for _, c := range cases {
		if got := deriveBlockMask(c.in, c.tileRows, c.tileCols); got != c.want {
			t.Errorf("deriveBlockMask(%s, %d, %d) = %s, want %s", c.in, c.tileRows, c.tileCols, got, c.want)
		}
	}
}

func TestDeriveBlockMaskPanicsOnTallNETiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	deriveBlockMask(DepNE, 4, 4)
}

// SolveTiled is SolveTiledContext without a deadline, on workers workers.
func SolveTiled[T any](p *Problem[T], tile, workers int) (*table.Grid[T], error) {
	return SolveTiledContext(context.Background(), p, tile, Options{NativeWorkers: workers})
}
