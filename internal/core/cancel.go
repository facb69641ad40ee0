package core

import (
	"context"
	"fmt"
)

// Canceled is the error every solver returns when its context is canceled
// or its deadline expires mid-solve. It unwraps to the context's cause, so
// errors.Is(err, context.Canceled) and errors.Is(err, context.DeadlineExceeded)
// work as expected.
//
// Cancellation discards partial results: the solver returns a nil grid (or
// nil result) alongside the error, because a partially filled DP table has
// no well-defined answer cell. Front records how far the sweep got — the
// index of the first wavefront (or row, or plane) that is not known to be
// fully computed — which callers can use for progress accounting or
// checkpoint-restart policies.
type Canceled struct {
	// Solver names the executor that was interrupted ("async", "tiled",
	// "async3", "hetero", ...).
	Solver string
	// Front is the index of the first front not known to be fully computed.
	Front int
	// Err is the context's cause (context.Canceled, context.DeadlineExceeded,
	// or a custom cause).
	Err error
}

func (c *Canceled) Error() string {
	return fmt.Sprintf("core: %s solve canceled at front %d: %v", c.Solver, c.Front, c.Err)
}

// Unwrap exposes the context error for errors.Is / errors.As chains.
func (c *Canceled) Unwrap() error { return c.Err }

// canceledErr builds the Canceled error for a solve interrupted at front.
func canceledErr(ctx context.Context, solver string, front int) error {
	err := context.Cause(ctx)
	if err == nil {
		err = context.Canceled
	}
	return &Canceled{Solver: solver, Front: front, Err: err}
}

// ctxDone returns the context's done channel, or nil for contexts that can
// never be canceled (context.Background, context.TODO, nil). A nil channel
// lets the hot paths skip every cancellation check with one pointer test.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// isDone is the polling primitive of the cancellation checks: a non-blocking
// receive on the done channel. done == nil (uncancellable context) is free.
func isDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
