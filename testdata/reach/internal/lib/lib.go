// Package lib holds one declaration of each kind the reachability check
// must tell apart.
package lib

// Live is called by the program.
func Live() Label { return box[Label]{v: 1}.get() }

// box is a generic type that Live instantiates.
type box[T any] struct{ v T }

// get is reached only through the instantiated method box[Label].get.
func (b box[T]) get() T { return b.v }

// Label is used by Live.
type Label int

// String is called by no declaration; fmt reaches it through fmt.Stringer.
func (l Label) String() string { return "label" }

// Dead is called by nothing.
func Dead() int { return onlyDead() }

// onlyDead is called only by Dead.
func onlyDead() int { return 2 }
