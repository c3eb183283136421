package wal

// The crash-injection hook is the durability subsystem's analogue of
// core.SetIterationHook: a test-only callback fired at every boundary where
// a real process can die — before a record is written, between a frame's
// header and payload (a torn write), after a transaction is fully framed but
// before it is acknowledged, before an fsync, around a checkpoint's
// tmp-write/rename/prune steps. A hook returning a non-nil error makes the
// operation fail at exactly that point, leaving the on-disk bytes in the
// same state a kill -9 at that instruction would: everything written so far
// persists (the page cache survives process death), nothing after it exists.
//
// The crash property test drives this: it first counts the boundaries a
// deterministic workload crosses, then re-runs the workload once per
// boundary, "dying" there, recovering with OpenCtx, and asserting the
// recovered epoch, workload, and solve results are bit-identical to an
// uncrashed oracle truncated at the same prefix.

import (
	"errors"
	"sync/atomic"
)

// ErrInjectedCrash is what a crash hook conventionally returns; the WAL and
// checkpoint paths treat any hook error the same way.
var ErrInjectedCrash = errors.New("wal: injected crash")

// CrashHook observes one named boundary; returning a non-nil error aborts
// the surrounding operation at that exact point.
type CrashHook func(point string) error

var crashHook atomic.Pointer[CrashHook]

// SetCrashHook installs a test-only crash-injection hook and returns a
// restore function that removes it. Passing nil clears the hook. Production
// builds never install one; the fire sites reduce to a single atomic load.
func SetCrashHook(fn CrashHook) (restore func()) {
	if fn == nil {
		crashHook.Store(nil)
	} else {
		crashHook.Store(&fn)
	}
	return func() { crashHook.Store(nil) }
}

// fireCrash fires the hook at one boundary inside this package.
func fireCrash(point string) error {
	if p := crashHook.Load(); p != nil {
		return (*p)(point)
	}
	return nil
}

// FireCrashHook exposes the hook to the checkpoint writer in package iq, so
// one installed hook covers every record/fsync/rename boundary of the whole
// durability path.
func FireCrashHook(point string) error { return fireCrash(point) }
