// Package pool is the shared worker pool behind every multi-run fan-out
// in the harness: experiment sweeps, seed batches, and the batched
// multi-run execution engine. Each task is an independent, deterministic
// computation whose result lands in an index-addressed slot, so parallel
// execution is bit-identical to sequential execution; the pool's only
// job is dispatch, error bookkeeping, and bounding concurrency.
package pool

import (
	"errors"
	"sync/atomic"
)

// ErrNotRun marks a task index that was never dispatched because an
// earlier task failed first. Distinguishing "skipped" from "succeeded"
// (nil) and "failed" (any other error) is what lets a batch report
// exactly which runs completed.
var ErrNotRun = errors.New("pool: not run (dispatch stopped after an earlier failure)")

// ForEach runs task(0..n-1) on up to workers goroutines (workers <= 0
// means GOMAXPROCS) and returns one error slot per index: nil for tasks
// that completed, the task's error for tasks that failed, and ErrNotRun
// for tasks never handed to a worker because dispatch stopped at the
// first failure. Tasks already in flight when a failure occurs run to
// completion — a sweep with one broken configuration fails in about one
// run's time, and the caller still learns exactly which runs finished.
//
// ForEach is Run without a weight: tasks are dealt in index order, and
// a single worker runs them strictly in sequence.
//
// The returned slice is nil when every task succeeded, so the
// all-clear path stays allocation-free for callers that only check
// emptiness.
func ForEach(n, workers int, task func(i int) error) []error {
	return Run(n, Options{Workers: workers}, task).Errs
}

// stopHook, when set, runs under the dispatch lock at the moment a
// multi-worker Run records its first failure — the point after which
// no index is handed out. See SetStopHook.
var stopHook atomic.Pointer[func()]

// SetStopHook is a test-only seam. It installs fn (nil removes it) to
// be called at the moment any multi-worker ForEach or Run observes its
// first failure and stops dispatch, and returns a function that
// restores the previous hook. fn runs under the pool's dispatch lock
// and must not block or call back into the pool. The hook is process
// global, so a test that sets it must not run beside other pool users
// (no t.Parallel). Tests use it to sequence on the pool's own
// observation of a failure rather than on a flag the failing task sets
// before it has returned.
func SetStopHook(fn func()) (restore func()) {
	var p *func()
	if fn != nil {
		p = &fn
	}
	prev := stopHook.Swap(p)
	return func() { stopHook.Store(prev) }
}

// stopped runs the stop hook, if any.
func stopped() {
	if fn := stopHook.Load(); fn != nil {
		(*fn)()
	}
}

// First returns the first error by index order — the deterministic
// collapsed error for callers that only need pass/fail — skipping
// ErrNotRun slots (the root cause is the failure that stopped
// dispatch, not the runs it skipped). nil when errs is nil.
func First(errs []error) error {
	var skipped error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrNotRun) {
			if skipped == nil {
				skipped = err
			}
			continue
		}
		return err
	}
	return skipped
}
