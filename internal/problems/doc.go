// Package problems contains the LDDP-Plus case studies of the paper —
// Levenshtein distance (anti-diagonal, §VI-A), Floyd-Steinberg dithering
// (knight-move, §VI-B), and the checkerboard problem (horizontal case-2,
// §VI-C) — together with the further classic LDDP instances that the
// examples, experiments and CLI tools run: longest common subsequence (in
// two and three sequences), Needleman-Wunsch and Smith-Waterman
// alignment, dynamic time warping, and seam carving.
//
// Every problem ships in two forms:
//
//   - a constructor returning a core.Problem, the framework formulation
//     (recurrence + contributing set + boundary), and
//   - an independent straight-line reference implementation (the *Ref
//     functions), written without the framework, against which the
//     framework's output is tested cell-for-cell. A reference that only
//     the tests call stays beside its constructor as that test's oracle.
package problems
