package core

import (
	"fmt"
	"testing"

	"repro/internal/hetsim"
	"repro/internal/table"
)

// TestTimelineLegal checks every simulated plan against the dependency
// DAG. The simulated strategies evaluate no cells (the tile engine fills
// their tables), so nothing else stops a plan from starting an op before
// the ops that write its inputs have ended.
//
// It rebuilds each compute op's cells from the timeline: the front is
// OpRecord.Front, and the in-front range starts where the front's previous
// compute op stopped (every strategy submits a front's ops in increasing
// in-front index). The ops must cover the executed table exactly once, and
// every contributing neighbour of an op's cells must lie in an op whose End
// is no later than this op's Start.
func TestTimelineLegal(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 33}, {33, 1}, {3, 101}, {101, 3}, {31, 37}, {48, 48}, {64, 200}, {200, 64}}
	failures := 0
	check := func(name string, err error) {
		if err == nil {
			return
		}
		if failures++; failures <= 10 {
			t.Errorf("%s: %v", name, err)
		}
	}

	accels := []Accelerator{
		{Name: "k20", Model: hetsim.HeteroHigh().GPU},
		{Name: "gt650m", Model: hetsim.HeteroLow().GPU},
		{Name: "phi", Model: hetsim.HeteroPhi().GPU},
	}
	for _, m := range AllDepMasks() {
		for _, sh := range shapes {
			p := testProblem(m, sh[0], sh[1])
			cp, canonical, _, _ := canonicalize(p)
			legal := func(executed Pattern, tl hetsim.Timeline) error {
				return planLegal2(NewWavefronts(executed, cp.Rows, cp.Cols), cp.Deps, tl)
			}
			for _, preferIL := range []bool{false, true} {
				for _, tSwitch := range []int{-1, 0, 1, 3, 10, 1000} {
					for _, tShare := range []int{-1, 0, 1, 2, 5, 17, 1000} {
						for _, noPipe := range []bool{false, true} {
							o := Options{TSwitch: tSwitch, TShare: tShare, PreferInvertedL: preferIL, DisablePipeline: noPipe, SkipCompute: true}
							res, err := SolveHetero(p, o)
							if err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("hetero %s %dx%d preferIL=%v tSwitch=%d tShare=%d noPipe=%v", m, sh[0], sh[1], preferIL, tSwitch, tShare, noPipe),
								legal(res.Executed, res.Timeline))
						}
					}
				}
				o := Options{TSwitch: -1, TShare: -1, PreferInvertedL: preferIL, SkipCompute: true}
				for mode, solve := range map[string]func(*Problem[int64], Options) (*Result[int64], error){
					"cpu-only": SolveCPUOnly[int64], "gpu-only": SolveGPUOnly[int64],
				} {
					res, err := solve(p, o)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s %s %dx%d preferIL=%v", mode, m, sh[0], sh[1], preferIL), legal(res.Executed, res.Timeline))
				}
			}
			if canonical != Horizontal && canonical != InvertedL {
				continue // multi runs horizontal-pattern problems only
			}
			for n := 1; n <= len(accels); n++ {
				even := make([]int, n+1)
				for d := range even {
					even[d] = cp.Cols / (n + 1)
					if d < cp.Cols%(n+1) {
						even[d]++
					}
				}
				for _, shares := range [][]int{nil, even} {
					res, err := SolveHeteroMulti(p, Options{TSwitch: -1, TShare: -1, SkipCompute: true}, accels[:n], shares)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("multi %s %dx%d accels=%d shares=%v", m, sh[0], sh[1], n, shares), legal(Horizontal, res.Timeline))
				}
			}
		}
	}

	masks3 := []Dep3Mask{Dep3X, Dep3Y | Dep3Z, Dep3XYZ, Dep3X | Dep3Y | Dep3Z, Dep3X | Dep3Y | Dep3Z | Dep3XYZ, Dep3XY | Dep3XZ, dep3All}
	shapes3 := [][3]int{{1, 1, 1}, {2, 9, 5}, {9, 3, 4}, {7, 7, 7}, {12, 5, 9}}
	for _, m := range masks3 {
		for _, sh := range shapes3 {
			p := testProblem3(m, sh[0], sh[1], sh[2])
			for _, tSwitch := range []int{-1, 0, 1, 3} {
				for _, tShare := range []int{-1, 0, 1, 2, 5} {
					o := Options{TSwitch: tSwitch, TShare: tShare, SkipCompute: true}
					res, err := SolveHetero3(p, o)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("hetero-3d %s %dx%dx%d tSwitch=%d tShare=%d", m, sh[0], sh[1], sh[2], tSwitch, tShare), planLegal3(p, res.Timeline))
				}
			}
		}
	}
	if failures > 0 {
		t.Errorf("%d illegal plans", failures)
	}
}

// planLegal2 checks a 2-D timeline over the executed wavefront space w of
// a problem with the (canonical) contributing set deps.
func planLegal2(w Wavefronts, deps DepMask, tl hetsim.Timeline) error {
	var offs [][2]int
	for _, d := range []struct {
		bit    DepMask
		di, dj int
	}{{DepW, 0, -1}, {DepNW, -1, -1}, {DepN, -1, 0}, {DepNE, -1, 1}} {
		if deps.Has(d.bit) {
			offs = append(offs, [2]int{d.di, d.dj})
		}
	}
	return planLegal(tl, w.Fronts, w.Rows*w.Cols, w.Size,
		func(f, lo, hi int, visit func(int)) {
			for k := lo; k < hi; k++ {
				i, j := w.Cell(f, k)
				visit(i*w.Cols + j)
			}
		},
		func(c int, buf []int) []int {
			i, j := c/w.Cols, c%w.Cols
			for _, o := range offs {
				if ni, nj := i+o[0], j+o[1]; ni >= 0 && nj >= 0 && nj < w.Cols {
					buf = append(buf, ni*w.Cols+nj)
				}
			}
			return buf
		})
}

// planLegal3 checks a 3-D timeline over the anti-diagonal planes of p.
func planLegal3(p *Problem3[int64], tl hetsim.Timeline) error {
	var offs [][3]int
	for bit, off := range dep3Offsets {
		if p.Deps.Has(bit) {
			offs = append(offs, off)
		}
	}
	ny, nz := p.NY, p.NZ
	return planLegal(tl, p.Planes(), p.NX*ny*nz,
		func(s int) int { return table.PlaneSize(p.NX, ny, nz, s) },
		func(s, lo, hi int, visit func(int)) {
			forEachPlaneCell(p, s, lo, hi, func(i, j, k int) { visit((i*ny+j)*nz + k) })
		},
		func(c int, buf []int) []int {
			i, j, k := c/(ny*nz), c/nz%ny, c%nz
			for _, o := range offs {
				if ni, nj, nk := i+o[0], j+o[1], k+o[2]; ni >= 0 && nj >= 0 && nk >= 0 {
					buf = append(buf, (ni*ny+nj)*nz+nk)
				}
			}
			return buf
		})
}

// planLegal rebuilds the cells of tl's compute ops (see TestTimelineLegal)
// and checks coverage and dependency order. cells visits the flat indices
// of cells [lo, hi) of front f; preds appends the flat indices of a cell's
// in-table predecessors to buf.
func planLegal(tl hetsim.Timeline, fronts, n int, size func(int) int,
	cells func(f, lo, hi int, visit func(int)), preds func(c int, buf []int) []int) error {
	owner := make([]int32, n) // compute op ID + 1 per cell
	next := make([]int, fronts)
	for id, r := range tl.Records {
		if r.Kind != hetsim.OpCompute {
			continue
		}
		f := r.Front
		if f < 0 || f >= fronts {
			return fmt.Errorf("%s (op %d) has front %d of %d", r.Label, id, f, fronts)
		}
		lo := next[f]
		if next[f] += r.Cells; next[f] > size(f) {
			return fmt.Errorf("%s (op %d) overruns front %d: %d of %d cells", r.Label, id, f, next[f], size(f))
		}
		own, twice := int32(id)+1, -1
		cells(f, lo, next[f], func(c int) {
			if owner[c] != 0 {
				twice = c
			}
			owner[c] = own
		})
		if twice >= 0 {
			return fmt.Errorf("%s (op %d) recomputes cell %d", r.FullLabel(), id, twice)
		}
	}
	for f, got := range next {
		if got != size(f) {
			return fmt.Errorf("front %d: ops cover %d of %d cells", f, got, size(f))
		}
	}
	var buf []int
	for c, o := range owner {
		if o == 0 {
			return fmt.Errorf("cell %d is computed by no op", c)
		}
		op := &tl.Records[o-1]
		buf = preds(c, buf[:0])
		for _, nb := range buf {
			if dep := &tl.Records[owner[nb]-1]; dep.End > op.Start {
				return fmt.Errorf("%s (op %d) starts at %v, but %s (op %d) writes a cell it reads until %v",
					op.FullLabel(), op.ID, op.Start, dep.FullLabel(), dep.ID, dep.End)
			}
		}
	}
	return nil
}

// forEachPlaneCell enumerates the cells of plane s (i+j+k = s) in
// (i, then j) order, calling fn for the cell range [lo, hi) of the plane:
// the order the 3-D simulated plans split a plane's cells in.
func forEachPlaneCell[T any](p *Problem3[T], s, lo, hi int, fn func(i, j, k int)) {
	idx := 0
	for i := max(0, s-(p.NY-1)-(p.NZ-1)); i <= min(p.NX-1, s); i++ {
		firstJ, count := table.PlaneRowSpan(p.NY, p.NZ, s, i)
		if idx+count <= lo {
			idx += count
			continue
		}
		for jj := 0; jj < count; jj++ {
			if idx >= hi {
				return
			}
			if idx >= lo {
				j := firstJ + jj
				fn(i, j, s-i-j)
			}
			idx++
		}
	}
}
