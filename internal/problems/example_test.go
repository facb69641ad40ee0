package problems_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/problems"
)

// The paper's §VI-A case study, end to end: build, solve, extract.
func ExampleLevenshtein() {
	a, b := "kitten", "sitting"
	p := problems.Levenshtein(a, b)
	g, err := core.Solve(p)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Pattern())
	fmt.Println(problems.LevenshteinDistance(g, a, b))
	// Output:
	// Anti-diagonal
	// 3
}

// The checkerboard problem of §VI-C through the heterogeneous framework.
func ExampleCheckerboard() {
	cost := [][]int32{
		{1, 9, 9},
		{9, 1, 9},
		{9, 9, 1},
	}
	res, err := core.SolveHetero(problems.Checkerboard(cost), core.Options{TSwitch: -1, TShare: -1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Transfer)
	fmt.Println(problems.CheckerboardBest(res.Grid))
	// Output:
	// 2 way
	// 3
}
