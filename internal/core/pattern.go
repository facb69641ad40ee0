package core

import "fmt"

// Pattern is the dependency pattern of an LDDP-Plus problem (paper §III,
// Figure 2). The pattern fixes the wavefront iteration space: all cells on
// one wavefront can be computed in parallel, and wavefronts execute in
// order.
type Pattern uint8

const (
	// AntiDiagonal processes cells with equal i+j together (Figure 2a).
	AntiDiagonal Pattern = iota
	// Horizontal processes rows together (Figure 2b).
	Horizontal
	// InvertedL processes cells with equal min(i,j) together (Figure 2c).
	InvertedL
	// KnightMove processes cells with equal 2i+j together (Figure 2d).
	KnightMove
	// Vertical processes columns together (Figure 2e). Symmetric to
	// Horizontal under transposition.
	Vertical
	// MInvertedL is the mirrored Inverted-L (Figure 2f): cells with equal
	// min(i, cols-1-j). Symmetric to InvertedL under column reflection.
	MInvertedL
)

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case AntiDiagonal:
		return "Anti-diagonal"
	case Horizontal:
		return "Horizontal"
	case InvertedL:
		return "Inverted-L"
	case KnightMove:
		return "Knight-Move"
	case Vertical:
		return "Vertical"
	case MInvertedL:
		return "mInverted-L"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Classify maps a contributing set to its pattern, reproducing paper
// Table I exactly. It panics on an invalid (empty) mask; callers validate
// problems first.
//
// The decision structure mirrors the table's underlying logic:
//
//   - W together with NE forces the knight-move spacing 2i+j;
//   - W with N (but no NE) forces anti-diagonals i+j;
//   - W alone (possibly with NW) leaves columns independent: Vertical;
//   - without W, any N — or the NW+NE pair — confines dependencies to the
//     previous row: Horizontal;
//   - NW alone yields Inverted-L; NE alone its mirror.
func Classify(m DepMask) Pattern {
	if !m.Valid() {
		panic(fmt.Sprintf("core: Classify on invalid mask %s", m))
	}
	switch {
	case m.Has(DepW) && m.Has(DepNE):
		return KnightMove
	case m.Has(DepW) && m.Has(DepN):
		return AntiDiagonal
	case m.Has(DepW):
		return Vertical
	case m.Has(DepN), m.Has(DepNW) && m.Has(DepNE):
		return Horizontal
	case m.Has(DepNW):
		return InvertedL
	default:
		return MInvertedL
	}
}

// TransferKind describes the per-iteration CPU<->GPU data movement a
// pattern requires during heterogeneous execution (paper Table II).
type TransferKind uint8

const (
	// TransferNone means the devices never exchange boundary cells
	// (Horizontal with contributing set {N}).
	TransferNone TransferKind = iota
	// TransferOneWay means boundary cells flow in one direction only, which
	// admits the pipelined stream scheme of paper §IV-C case 1.
	TransferOneWay
	// TransferTwoWay means both devices need the other's boundary cells
	// every iteration, requiring the pinned-memory scheme of §IV-C case 2.
	TransferTwoWay
)

// String returns the paper's wording for the transfer kind.
func (k TransferKind) String() string {
	switch k {
	case TransferNone:
		return "none"
	case TransferOneWay:
		return "1 way"
	case TransferTwoWay:
		return "2 way"
	default:
		return fmt.Sprintf("TransferKind(%d)", uint8(k))
	}
}

// TransferNeed returns the data-transfer requirement for a contributing
// set under its pattern's heterogeneous strategy, reproducing paper
// Table II. The split orientation is the one fixed by each strategy: a
// left-columns CPU block for Horizontal/Vertical/Knight-Move, a top-rows
// CPU block for Anti-Diagonal, and a leading-cells block for Inverted-L.
func TransferNeed(m DepMask) TransferKind {
	switch Classify(m) {
	case KnightMove:
		return TransferTwoWay
	case AntiDiagonal, InvertedL, MInvertedL:
		return TransferOneWay
	case Horizontal:
		// Case-2 (two-way) iff both NW and NE cross the column split;
		// {N} alone needs no transfer at all.
		switch {
		case m.Has(DepNW) && m.Has(DepNE):
			return TransferTwoWay
		case m.Has(DepNW) || m.Has(DepNE):
			return TransferOneWay
		default:
			return TransferNone
		}
	case Vertical:
		// Transposed horizontal: {W}->{N} (none), {W,NW}->{N,NW} (one-way).
		if m.Has(DepNW) {
			return TransferOneWay
		}
		return TransferNone
	default:
		panic("core: unreachable pattern in TransferNeed")
	}
}

// CanonicalPattern returns the pattern the framework actually executes
// after symmetry reduction (paper §III: Vertical and mInverted-L reduce to
// Horizontal and Inverted-L), plus the reduction applied.
func CanonicalPattern(p Pattern) (canonical Pattern, reduction Reduction) {
	switch p {
	case Vertical:
		return Horizontal, ReduceTranspose
	case MInvertedL:
		return InvertedL, ReduceMirror
	default:
		return p, ReduceNone
	}
}

// Reduction identifies the symmetry transform used to canonicalize a
// pattern.
type Reduction uint8

const (
	// ReduceNone means the pattern is executed directly.
	ReduceNone Reduction = iota
	// ReduceTranspose means the problem is solved transposed.
	ReduceTranspose
	// ReduceMirror means the problem is solved with mirrored columns.
	ReduceMirror
)

// String names the reduction.
func (r Reduction) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceTranspose:
		return "transpose"
	case ReduceMirror:
		return "mirror"
	default:
		return fmt.Sprintf("Reduction(%d)", uint8(r))
	}
}
