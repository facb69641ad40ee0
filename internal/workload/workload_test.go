package workload

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
	}
}

func TestRandomString(t *testing.T) {
	s := RandomString(1, 500, DNAAlphabet)
	if len(s) != 500 {
		t.Fatalf("len = %d", len(s))
	}
	counts := map[rune]int{}
	for _, c := range s {
		counts[c]++
	}
	for _, c := range DNAAlphabet {
		if counts[c] == 0 {
			t.Errorf("letter %c never appears in 500 draws", c)
		}
	}
	if s != RandomString(1, 500, DNAAlphabet) {
		t.Error("not deterministic")
	}
	if s == RandomString(2, 500, DNAAlphabet) {
		t.Error("seed has no effect")
	}
}

func TestSimilarStrings(t *testing.T) {
	a, b := SimilarStrings(5, 2000, ASCIIAlphabet, 0.1)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	// ~10% mutation rate, but a mutation can re-draw the same letter;
	// expect roughly 0.1 * 25/26 ~ 9.6% differences.
	if diff < 100 || diff > 320 {
		t.Errorf("differences = %d of 2000, want near 190", diff)
	}
}

func TestGrayImageShapeAndRange(t *testing.T) {
	img := GrayImage(3, 20, 30)
	if len(img) != 20 || len(img[0]) != 30 {
		t.Fatal("shape wrong")
	}
	// The gradient should make the bottom-right brighter than the top-left
	// on average.
	var tl, br int
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			tl += int(img[i][j])
			br += int(img[15+i][25+j])
		}
	}
	if br <= tl {
		t.Errorf("gradient missing: tl=%d br=%d", tl, br)
	}
}

func TestCostGridRange(t *testing.T) {
	g := CostGrid(11, 10, 10, 9)
	for i := range g {
		for j := range g[i] {
			if g[i][j] < 1 || g[i][j] > 9 {
				t.Fatalf("cost %d out of [1,9]", g[i][j])
			}
		}
	}
}

func TestTimeSeriesBounds(t *testing.T) {
	s := TimeSeries(13, 5000, -2, 2)
	if len(s) != 5000 {
		t.Fatal("length wrong")
	}
	for i, v := range s {
		if v < -2 || v > 2 {
			t.Fatalf("s[%d] = %v out of bounds", i, v)
		}
	}
}

func TestEnergyGridNonNegative(t *testing.T) {
	g := EnergyGrid(17, 30, 30)
	edges := 0
	for i := range g {
		for j := range g[i] {
			if g[i][j] < 0 {
				t.Fatalf("negative energy")
			}
			if g[i][j] >= 128 {
				edges++
			}
		}
	}
	if edges == 0 {
		t.Error("no high-energy edges generated")
	}
}

// Property: generators are pure functions of their seed.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := SimilarStrings(seed, 64, DNAAlphabet, 0.2)
		a2, b2 := SimilarStrings(seed, 64, DNAAlphabet, 0.2)
		if a != a2 || b != b2 {
			return false
		}
		g1 := CostGrid(seed, 8, 8, 10)
		g2 := CostGrid(seed, 8, 8, 10)
		for i := range g1 {
			for j := range g1[i] {
				if g1[i][j] != g2[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CostRows is the rows [r0, r1) of CostGrid for any seed and
// shape, generated without the rows above r0.
func TestCostRowsMatchCostGrid(t *testing.T) {
	f := func(seed uint64, r, c, a, b uint8) bool {
		rows, cols := int(r%20)+1, int(c%20)+1
		r0 := int(a) % (rows + 1)
		r1 := r0 + int(b)%(rows-r0+1)
		grid := CostGrid(seed, rows, cols, 50)
		part := CostRows(seed, cols, 50, r0, r1)
		if len(part) != r1-r0 {
			return false
		}
		for i, row := range part {
			for j, v := range row {
				if v != grid[r0+i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
