package cagc

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"cagc/internal/pool"
)

func TestForEachStopsDispatchOnError(t *testing.T) {
	// Once a task fails, indices not yet handed to a worker must never
	// run: a sweep with a broken configuration should cost one run's
	// time, not n's. Task 0 errors immediately; every other task parks
	// until the pool itself has recorded that failure (its stop hook),
	// after which the pool hands out no index. So at most one task per
	// worker ever runs: task 0 plus whatever was parked beside it.
	const n = 10_000
	boom := errors.New("boom 0")
	var stopped atomic.Bool
	defer pool.SetStopHook(func() { stopped.Store(true) })()
	var executed atomic.Int64
	err := forEach(n, func(i int) error {
		executed.Add(1)
		if i == 0 {
			return boom
		}
		for !stopped.Load() {
			runtime.Gosched()
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if max := int64(4 * runtime.GOMAXPROCS(0)); executed.Load() > max {
		t.Fatalf("executed %d tasks after first error, want <= %d", executed.Load(), max)
	}
}
