// Package server implements the lddpd network solve service: HTTP/JSON
// handlers over the shared scheduler (lddp.Scheduler), with request
// validation, bounded in-flight admission, deadline propagation, status
// mapping of the scheduler's outcome trichotomy, and graceful drain.
// The wire protocol and client live in repro/lddp/client; DESIGN.md §10
// documents both sides.
package server

import (
	"fmt"

	"repro/internal/wire"
	"repro/internal/workload"
	"repro/lddp"
	"repro/lddp/api"
)

// Every kind builder takes the table's shape (rows, cols) and an origin
// (r0, c0) inside it. The problem it returns starts at that cell: F and
// Boundary take (i, j) relative to the origin, and it spans the
// (rows-r0) x (cols-c0) cells from there to the table's far corner. Each
// builder folds the origin into what its closures capture, so a shifted
// recurrence costs a cell nothing over an unshifted one, and each tests
// its mask once, when it is built. (0, 0) is the whole table;
// BlockProblem trims a shifted problem to one fleet block.

// MixProblem builds the seeded adversarial instance family of the
// conformance suite (internal/core/conformance_test.go): every
// contributing neighbour and the cell position are mixed through
// wraparound multiply-xor steps (splitmix-style), so reordered or torn
// reads anywhere in the distributed path change the output with
// overwhelming probability. It is the differential-test workhorse of the
// wire boundary: the e2e suite rebuilds the same instance locally and
// demands exact equality against the sequential oracle. The origin folds
// into the position term, which wraps like every other step.
func MixProblem(seed int64, m lddp.DepMask, rows, cols, r0, c0 int) *lddp.Problem[int64] {
	mix := func(v int64) int64 {
		v *= -7046029254386353131 // odd constant; wraparound is the point
		v ^= int64(uint64(v) >> 29)
		v *= -4658895280553007687
		v ^= int64(uint64(v) >> 32)
		return v
	}
	hasW, hasNW, hasN, hasNE := m.Has(lddp.DepW), m.Has(lddp.DepNW), m.Has(lddp.DepN), m.Has(lddp.DepNE)
	origin := seed + int64(r0)*1_000_003 + int64(c0)
	return &lddp.Problem[int64]{
		Name: fmt.Sprintf("mix-%s-%dx%d", m, rows, cols),
		Rows: rows - r0, Cols: cols - c0, Deps: m,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			v := origin + int64(i)*1_000_003 + int64(j)
			if hasW {
				v = mix(v + 3*nb.W)
			}
			if hasNW {
				v = mix(v ^ nb.NW)
			}
			if hasN {
				v = mix(v + nb.N<<1)
			}
			if hasNE {
				v = mix(v - nb.NE)
			}
			return v
		},
		Boundary: func(i, j int) int64 {
			return mix(seed ^ (int64(i+r0) << 20) ^ int64(j+c0))
		},
		BytesPerCell: 8,
	}
}

// ServeProblem builds the load driver's benchmark recurrence (cheap
// add/xor mixing of every contributing neighbour — the cost class of real
// DP kernels, the same work per cell regardless of mask). cmd/lddpserve
// uses it for both its in-process and -url modes, so local and remote
// throughput runs execute the identical kernel. The origin folds into the
// linear position term.
func ServeProblem(m lddp.DepMask, rows, cols, r0, c0 int) *lddp.Problem[int64] {
	hasW, hasNW, hasN, hasNE := m.Has(lddp.DepW), m.Has(lddp.DepNW), m.Has(lddp.DepN), m.Has(lddp.DepNE)
	origin := int64(r0*31 + c0*17)
	return &lddp.Problem[int64]{
		Name: fmt.Sprintf("serve-%s-%dx%d", m, rows, cols),
		Rows: rows - r0, Cols: cols - c0, Deps: m,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			v := origin + int64(i*31+j*17)
			if hasW {
				v += 2*nb.W + 1
			}
			if hasNW {
				v += 3 * nb.NW
			}
			if hasN {
				v += nb.N ^ 9
			}
			if hasNE {
				v += nb.NE - 7
			}
			return v
		},
		Boundary:     func(i, j int) int64 { return int64(i + r0 + 2*(j+c0)) },
		BytesPerCell: 8,
	}
}

// CostProblem builds a min-plus shortest-path recurrence over a cost
// grid: cell = cost[i][j] + min over contributing neighbours (boundary
// reads cost zero). cells must be rows x cols, row-major; the origin
// offsets the rows the recurrence reads. This is the inline-payload
// kind: the request carries the costs, so the server computes over
// caller data rather than a seeded generator.
func CostProblem(m lddp.DepMask, rows, cols, r0, c0 int, cells [][]int64) (*lddp.Problem[int64], error) {
	if len(cells) != rows {
		return nil, fmt.Errorf("cost cells have %d rows, want %d", len(cells), rows)
	}
	for i, row := range cells {
		if len(row) != cols {
			return nil, fmt.Errorf("cost cells row %d has %d values, want %d", i, len(row), cols)
		}
	}
	hasW, hasNW, hasN, hasNE := m.Has(lddp.DepW), m.Has(lddp.DepNW), m.Has(lddp.DepN), m.Has(lddp.DepNE)
	costs := cells[r0:]
	return &lddp.Problem[int64]{
		Name: fmt.Sprintf("cost-%s-%dx%d", m, rows, cols),
		Rows: rows - r0, Cols: cols - c0, Deps: m,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			best := int64(0)
			have := false
			take := func(v int64) {
				if !have || v < best {
					best, have = v, true
				}
			}
			if hasW {
				take(nb.W)
			}
			if hasNW {
				take(nb.NW)
			}
			if hasN {
				take(nb.N)
			}
			if hasNE {
				take(nb.NE)
			}
			return costs[i][c0+j] + best
		},
		BytesPerCell: 8,
	}, nil
}

// GeneratedCostCells builds the seeded cost grid used by the "cost" kind
// when the request carries no inline payload, reusing the shortest-path
// generator of internal/workload (costs in [1, 64]).
func GeneratedCostCells(seed int64, rows, cols int) [][]int64 {
	g := workload.CostGrid(uint64(seed), rows, cols, 64)
	cells := make([][]int64, rows)
	for i := range cells {
		cells[i] = make([]int64, cols)
		for j := range cells[i] {
			cells[i][j] = int64(g[i][j])
		}
	}
	return cells
}

// AlignMask is the fixed contributing set of the "align" kind.
const AlignMask = api.AlignMask

// AlignProblem builds an edit-distance instance over two similar DNA
// strings from internal/workload (length rows and cols, ~5% mutations):
// the classic {W,NW,N} alignment recurrence on a realistic near-identical
// input pair. The origin slices the strings.
func AlignProblem(seed int64, rows, cols, r0, c0 int) *lddp.Problem[int64] {
	a, b := workload.SimilarStrings(uint64(seed), rows, workload.DNAAlphabet, 0.05)
	if cols != rows {
		b = workload.RandomString(uint64(seed)+1, cols, workload.DNAAlphabet)
	}
	a, b = a[r0:], b[c0:]
	return &lddp.Problem[int64]{
		Name: fmt.Sprintf("align-%dx%d", rows, cols),
		Rows: rows - r0, Cols: cols - c0, Deps: AlignMask,
		F: func(i, j int, nb lddp.Neighbors[int64]) int64 {
			sub := nb.NW
			if a[i] != b[j] {
				sub++
			}
			v := sub
			if d := nb.W + 1; d < v {
				v = d
			}
			if d := nb.N + 1; d < v {
				v = d
			}
			return v
		},
		// Boundary encodes the first row/column of the classic DP: the
		// distance of a prefix against the empty string.
		Boundary: func(i, j int) int64 {
			i, j = i+r0, j+c0
			if i < 0 && j < 0 {
				return 0
			}
			if i < 0 {
				return int64(j + 1)
			}
			return int64(i + 1)
		},
		BytesPerCell: 8,
	}
}

// BuildProblem materializes the DP problem of a validated solve request.
// It is exported (and deterministic in the request) so the e2e
// differential suite can rebuild the exact server-side instance for its
// sequential oracle.
func BuildProblem(req *api.SolveRequest) (*lddp.Problem[int64], error) {
	return buildProblem(req, 0, 0)
}

// buildProblem is BuildProblem with the problem's origin at cell (r0, c0)
// of the request's table.
func buildProblem(req *api.SolveRequest, r0, c0 int) (*lddp.Problem[int64], error) {
	kind := req.Workload.Kind
	if kind == "" {
		kind = api.KindMix
	}
	mask, err := api.ResolveMask(kind, req.Mask)
	if err != nil {
		return nil, err
	}
	switch kind {
	case api.KindMix:
		return MixProblem(req.Workload.Seed, mask, req.Rows, req.Cols, r0, c0), nil
	case api.KindServe:
		return ServeProblem(mask, req.Rows, req.Cols, r0, c0), nil
	case api.KindCost:
		cells := req.Workload.Cells
		if cells == nil {
			cells = GeneratedCostCells(req.Workload.Seed, req.Rows, req.Cols)
		}
		return CostProblem(mask, req.Rows, req.Cols, r0, c0, cells)
	case api.KindAlign:
		return AlignProblem(req.Workload.Seed, req.Rows, req.Cols, r0, c0), nil
	default:
		return nil, fmt.Errorf("unknown workload kind %q (want mix, serve, cost or align)", kind)
	}
}

// DigestCells computes the FNV-1a 64-bit word digest of a table's
// dimensions and row-major cell values, rendered as hex: a compact
// equality witness for tables too large to return over the wire. The
// fold is word-wise (each cell is one 64-bit FNV step, repro/internal/
// wire.CellsDigest) rather than byte-wise — digesting a multi-megabyte
// table used to dominate the wire path's cost over direct submission.
func DigestCells(rows, cols int, cells []int64) string {
	return fmt.Sprintf("%016x", wire.CellsDigest(rows, cols, cells))
}

// DigestGrid is DigestCells over a result grid.
func DigestGrid(g *lddp.Grid[int64]) string {
	return DigestCells(g.Rows(), g.Cols(), g.RowMajorData())
}
