package core

// This file carries the engine's cancellation surface and its fault-injection
// hook. The greedy solvers (Algorithms 3–4, their combinatorial variants and
// the exhaustive option) are polynomial but still expensive loops over the
// whole workload; callers that run them under a deadline need a way to stop
// mid-solve. The contract is: cancellation is observed at every iteration
// boundary and before every per-query candidate probe, the partial greedy
// state is discarded (a cancelled solve returns a nil Result), and the error
// wraps both the engine sentinel (ErrCanceled / ErrDeadlineExceeded) and the
// context's own error so callers can match either family with errors.Is.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCanceled reports a solve stopped early because its context was
// cancelled. The wrapped chain also matches context.Canceled.
var ErrCanceled = errors.New("core: solve canceled")

// ErrDeadlineExceeded reports a solve stopped early because its context's
// deadline passed. The wrapped chain also matches context.DeadlineExceeded.
var ErrDeadlineExceeded = errors.New("core: solve deadline exceeded")

// CtxErr translates a context's failure state into the engine's sentinel
// errors. It returns nil while ctx is live; afterwards the returned error
// satisfies errors.Is against both the sentinel and ctx.Err().
func CtxErr(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// IterationHook observes solver progress points before their work runs. At
// iteration granularity op names the greedy loop ("mincost", "maxhit",
// "mincost-multi", "maxhit-multi") and the second argument counts rounds
// from 1 within one solve. At probe granularity op is "probe" and the second
// argument is the probe's slot in the current greedy round. A solve calls
// the hook on its own goroutine, but concurrent solves, such as the items of
// a batch, may call it concurrently.
type IterationHook func(op string, iteration int)

// iterHook is the installed fault-injection hook; nil in production. It is
// read on every solver iteration from arbitrary goroutines, so installation
// is atomic.
var iterHook atomic.Pointer[IterationHook]

// SetIterationHook installs a test-only fault-injection hook called at the
// top of every greedy iteration, before that iteration's candidate
// generation. Tests use it to deterministically cancel a context mid-solve,
// block a solve until released, or panic inside the engine — without
// wall-clock timing. It returns a restore function that removes the hook;
// passing nil clears it. Solvers observing the hook may run concurrently
// with SetIterationHook, but tests should not rely on in-flight solves
// seeing a hook installed after they started.
func SetIterationHook(fn IterationHook) (restore func()) {
	if fn == nil {
		iterHook.Store(nil)
	} else {
		iterHook.Store(&fn)
	}
	return func() { iterHook.Store(nil) }
}

// checkpoint is the shared per-iteration cancellation point: it fires the
// fault-injection hook first (so a test's cancel lands before the check) and
// then reports the context's state.
func checkpoint(ctx context.Context, op string, iteration int) error {
	if p := iterHook.Load(); p != nil {
		(*p)(op, iteration)
	}
	return CtxErr(ctx)
}

// MutationCheckpoint is the write path's cancellation point, shared with the
// solver fault-injection hook: op is "mutation" and iteration identifies the
// position within a batch (0-based; -1 for the pre-publish check of a single
// mutation). The copy-on-write mutator calls it between batch operations and
// once more after the mutation function succeeded, before publish — a
// cancellation observed there discards the clone, with every row it
// replaced, whole, so no partially applied batch can ever be published.
func MutationCheckpoint(ctx context.Context, iteration int) error {
	return checkpoint(ctx, "mutation", iteration)
}

// fireProbe notifies the hook of one candidate probe as a greedy round's
// selection solves it. Unlike checkpoint it carries no context: the caller
// checks cancellation itself.
func fireProbe(slot int) {
	if p := iterHook.Load(); p != nil {
		(*p)("probe", slot)
	}
}
