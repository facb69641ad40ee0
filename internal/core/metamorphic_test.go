// Metamorphic tests for the Table-I symmetry relations the solvers rely
// on: Vertical is transposed Horizontal, and mirrored-Inverted-L is
// column-mirrored Inverted-L. Each relation is checked on randomized
// instances through both the sequential oracle and a parallel executor,
// so a bug in the reduction machinery (Transposed/MirroredColumns or the
// canonicalize step that uses them) cannot hide behind a matching bug in
// one executor.
package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// metaDims draws a random shape including degenerate rows/columns.
func metaDims(rng *rand.Rand) (int, int) {
	return 1 + rng.Intn(40), 1 + rng.Intn(40)
}

// TestMetamorphicVerticalIsTransposedHorizontal: for a Vertical-pattern
// problem p, solving p directly must equal solving Transposed(p) — a
// Horizontal-pattern problem — and mapping the grid back. Both Vertical
// masks ({W} and {W,NW}) are exercised.
func TestMetamorphicVerticalIsTransposedHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	masks := []core.DepMask{core.DepW, core.DepW | core.DepNW}
	for iter := 0; iter < 12; iter++ {
		m := masks[iter%len(masks)]
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, m, rows, cols)
		if got := core.Classify(p.Deps); got != core.Vertical {
			t.Fatalf("mask %s classifies as %s, want Vertical", m, got)
		}
		tp, undo := core.Transposed(p)
		if got := core.Classify(tp.Deps); got != core.Horizontal {
			t.Fatalf("transposed mask %s classifies as %s, want Horizontal", tp.Deps, got)
		}
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		viaT, err := core.Solve(tp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(viaT)) {
			t.Errorf("mask=%s shape=%dx%d seed=%d: sequential Vertical != transposed Horizontal", m, rows, cols, seed)
		}
		parT, err := core.SolveParallel(tp, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(parT)) {
			t.Errorf("mask=%s shape=%dx%d seed=%d: parallel transposed Horizontal differs from direct Vertical", m, rows, cols, seed)
		}
	}
}

// TestMetamorphicMInvertedLIsMirroredInvertedL: for a mirrored-Inverted-L
// problem ({NE}), solving directly must equal solving the column-mirrored
// problem — an Inverted-L ({NW}) — and mirroring the grid back.
func TestMetamorphicMInvertedLIsMirroredInvertedL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 12; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, core.DepNE, rows, cols)
		if got := core.Classify(p.Deps); got != core.MInvertedL {
			t.Fatalf("mask NE classifies as %s, want MInvertedL", got)
		}
		mp, undo := core.MirroredColumns(p)
		if got := core.Classify(mp.Deps); got != core.InvertedL {
			t.Fatalf("mirrored mask %s classifies as %s, want InvertedL", mp.Deps, got)
		}
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		viaM, err := core.Solve(mp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(viaM)) {
			t.Errorf("shape=%dx%d seed=%d: sequential mInverted-L != mirrored Inverted-L", rows, cols, seed)
		}
		parM, err := core.SolveParallel(mp, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo(parM)) {
			t.Errorf("shape=%dx%d seed=%d: parallel mirrored Inverted-L differs from direct mInverted-L", rows, cols, seed)
		}
	}
}

// TestMetamorphicAsyncSymmetry runs both Table-I symmetry relations
// through the dependency-driven tile engine, on its derived row segments
// and on square tiles: solving the transposed (or column-mirrored) problem
// and mapping the grid back must reproduce the direct sequential solve.
// The tile engine performs no canonicalization of its own, so this
// catches any disagreement between its raw-mask tile graph and the
// reduction machinery.
func TestMetamorphicAsyncSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	solvers := []struct {
		name  string
		solve func(*core.Problem[int64]) (*table.Grid[int64], error)
	}{
		{"segments", func(p *core.Problem[int64]) (*table.Grid[int64], error) { return core.SolveParallel(p, 4) }},
		{"tile3", func(p *core.Problem[int64]) (*table.Grid[int64], error) { return core.SolveTiled(p, 3, 4) }},
	}
	for iter := 0; iter < 12; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		for _, sv := range solvers {
			// Vertical {W} vs its transposed Horizontal.
			p := confProblem(seed, core.DepW, rows, cols)
			direct, err := core.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			tilesDirect, err := sv.solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(direct, tilesDirect) {
				t.Errorf("%s shape=%dx%d seed=%d: tile engine Vertical differs from sequential", sv.name, rows, cols, seed)
			}
			tp, undo := core.Transposed(p)
			viaT, err := sv.solve(tp)
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(direct, undo(viaT)) {
				t.Errorf("%s shape=%dx%d seed=%d: tile engine transposed Horizontal differs from direct Vertical", sv.name, rows, cols, seed)
			}

			// Mirrored-Inverted-L {NE} vs its column-mirrored Inverted-L.
			pm := confProblem(seed, core.DepNE, rows, cols)
			mdirect, err := core.Solve(pm)
			if err != nil {
				t.Fatal(err)
			}
			mp, mundo := core.MirroredColumns(pm)
			viaM, err := sv.solve(mp)
			if err != nil {
				t.Fatal(err)
			}
			if !table.EqualComparable(mdirect, mundo(viaM)) {
				t.Errorf("%s shape=%dx%d seed=%d: tile engine mirrored Inverted-L differs from direct mInverted-L", sv.name, rows, cols, seed)
			}
		}
	}
}

// gridDigest folds a grid into an FNV-1a digest in row-major order, the
// canonical fingerprint for the determinism check below.
func gridDigest(g *table.Grid[int64]) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			v := uint64(g.At(i, j))
			for s := 0; s < 64; s += 8 {
				h ^= (v >> s) & 0xff
				h *= prime64
			}
		}
	}
	return h
}

// TestMetamorphicAsyncDeterminism: the tile engine's completion order is
// nondeterministic (whichever worker's decrement lands last takes the
// tile), but the computed table must not be — repeated solves of the same
// instance must produce bit-identical digests. Run across several masks
// including the full mask, whose one-cell tiles race on four counters at
// once.
func TestMetamorphicAsyncDeterminism(t *testing.T) {
	masks := []core.DepMask{
		core.DepW | core.DepN,
		core.DepN,
		core.DepW | core.DepNE,
		core.DepW | core.DepNW | core.DepN | core.DepNE,
	}
	for _, m := range masks {
		p := confProblem(0xd1ce, m, 67, 59)
		want, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := gridDigest(want)
		for rep := 0; rep < 8; rep++ {
			solve := core.SolveParallel[int64]
			if rep%2 == 1 {
				solve = func(p *core.Problem[int64], workers int) (*table.Grid[int64], error) {
					return core.SolveTiled(p, 1, workers)
				}
			}
			g, err := solve(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if d := gridDigest(g); d != wantDigest {
				t.Fatalf("mask=%s rep=%d: tile engine digest %#x differs from oracle %#x", m, rep, d, wantDigest)
			}
		}
	}
}

// TestMetamorphicReductionsAreInvolutions: applying a reduction twice
// returns to the original problem — transposing a transposed problem (or
// mirroring a mirrored one) and solving must reproduce the direct solve.
func TestMetamorphicReductionsAreInvolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 6; iter++ {
		rows, cols := metaDims(rng)
		seed := rng.Int63()
		p := confProblem(seed, core.DepW|core.DepN, rows, cols)
		direct, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, undo1 := core.Transposed(p)
		tpp, undo2 := core.Transposed(tp)
		g, err := core.Solve(tpp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(direct, undo1(undo2(g))) {
			t.Errorf("shape=%dx%d seed=%d: double transpose is not the identity", rows, cols, seed)
		}
		// Mirroring is only defined for W-free masks (a mirrored W would
		// be a forward dependency), so the mirror half uses {N,NE}.
		pm := confProblem(seed, core.DepN|core.DepNE, rows, cols)
		mdirect, err := core.Solve(pm)
		if err != nil {
			t.Fatal(err)
		}
		mp, mundo1 := core.MirroredColumns(pm)
		mpp, mundo2 := core.MirroredColumns(mp)
		mg, err := core.Solve(mpp)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualComparable(mdirect, mundo1(mundo2(mg))) {
			t.Errorf("shape=%dx%d seed=%d: double mirror is not the identity", rows, cols, seed)
		}
	}
}
