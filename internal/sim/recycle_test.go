package sim

import (
	"reflect"
	"sync"
	"testing"

	"cagc/internal/ftl"
	"cagc/internal/trace"
)

// A recycled runner must be indistinguishable from a fresh clone: the
// first RunWarmRecycled cuts a clone, releases it, and every later run
// re-seeds that same runner through each layer's CopyDirty. All of
// them must reproduce a cold Run bit for bit — including with the full
// stateful stack (write buffer, cached mapping table, stateful victim
// policy, closed-loop replay), which exercises every CopyDirty in the
// tree.
func TestRunWarmRecycledMatchesColdRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) (Config, trace.Spec)
	}{
		{"cagc", func(t *testing.T) (Config, trace.Spec) {
			return snapConfig(t, ftl.CAGCOptions())
		}},
		{"all-layers", func(t *testing.T) (Config, trace.Spec) {
			opts := ftl.CAGCOptions()
			opts.Policy = ftl.NewRandomPolicy(7)
			opts.MappingCache = 1024
			cfg, spec := snapConfig(t, opts)
			cfg.BufferPages = 32
			cfg.QueueDepth = 8
			return cfg, spec
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, spec := tc.cfg(t)
			cold, err := Run(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			snapCfg, _ := tc.cfg(t)
			snap, err := NewSnapshot(snapCfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			before := CloneGaugeStats()
			for i := 0; i < 3; i++ {
				runCfg, _ := tc.cfg(t)
				warm, err := RunWarmRecycled(snap, runCfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("recycled run %d diverged from cold run:\ncold %v\nwarm %v", i, cold, warm)
				}
			}
			after := CloneGaugeStats()
			if fresh := after.Fresh - before.Fresh; fresh != 1 {
				t.Fatalf("3 serial recycled runs cut %d fresh clones, want 1", fresh)
			}
			if rec := after.Recycled - before.Recycled; rec != 2 {
				t.Fatalf("3 serial recycled runs recycled %d runners, want 2", rec)
			}
		})
	}
}

// A recycled run with different measured parameters (seed, queue depth)
// must match the cold run for those parameters — recycling cannot leak
// the previous run's trace into the next.
func TestRecycledRunnerCarriesNoRunState(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the free-list with a run on a different seed.
	primed := spec
	primed.Seed = 4242
	if _, err := RunWarmRecycled(snap, cfg, primed); err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWarmRecycled(snap, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("recycled runner leaked previous run state")
	}
	// And the master stayed pristine through the recycle churn.
	again, err := RunWarmRecycled(snap, cfg, primed)
	if err != nil {
		t.Fatal(err)
	}
	coldPrimed, err := Run(cfg, primed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldPrimed, again) {
		t.Fatal("recycle churn mutated the snapshot master")
	}
}

// The whole point of the free-list: a batch of N runs must never hold
// more than workers+1 clones live at once, regardless of N. (The +1
// allows for a released runner being re-seeded while another worker
// holds its own — in practice peak == workers for this serial-release
// pattern, but the bound is what the memory model needs.)
func TestBatchCloneResidencyBoundedByWorkers(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = 12, 3
	snap.SetFreeListCap(workers)
	runs := make([]BatchRun, n)
	for i := range runs {
		s := spec
		s.Seed = int64(i + 1)
		runs[i] = BatchRun{Snap: snap, Cfg: cfg, Spec: s}
	}
	ResetCloneGauge()
	before := CloneGaugeStats()
	results, errs := RunBatch(runs, workers)
	if errs != nil {
		t.Fatalf("batch errors: %v", errs)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
	}
	after := CloneGaugeStats()
	// Clones earlier tests left live count toward the absolute gauge;
	// the batch's own residency is the peak above that floor.
	if peak := after.Peak - before.Live; peak > workers+1 {
		t.Fatalf("peak live clones %d exceeds workers+1 = %d for %d runs",
			peak, workers+1, n)
	}
	if total := after.Fresh - before.Fresh + after.Recycled - before.Recycled; total != n {
		t.Fatalf("gauge saw %d acquires, want %d", total, n)
	}
	if after.Fresh-before.Fresh > workers {
		t.Fatalf("batch cut %d fresh clones with %d workers; recycling is not engaging",
			after.Fresh-before.Fresh, workers)
	}
	if live := after.Live - before.Live; live != 0 {
		t.Fatalf("%d clones still live after batch completed", live)
	}
}

// Release beyond the free-list cap must drop the runner, not park it:
// the next acquires recycle exactly as many runners as the cap allows
// and cut fresh clones for the rest.
func TestReleaseBeyondCapDrops(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap.SetFreeListCap(1)
	r1, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := snap.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release(r1)
	snap.Release(r2) // beyond the cap: dropped
	before := CloneGaugeStats()
	if _, err := snap.Acquire(cfg); err != nil { // recycles r1
		t.Fatal(err)
	}
	if _, err := snap.Acquire(cfg); err != nil { // list empty: fresh
		t.Fatal(err)
	}
	after := CloneGaugeStats()
	if rec := after.Recycled - before.Recycled; rec != 1 {
		t.Fatalf("recycled %d runners after a cap-1 double release, want 1", rec)
	}
	if fresh := after.Fresh - before.Fresh; fresh != 1 {
		t.Fatalf("cut %d fresh clones after a cap-1 double release, want 1", fresh)
	}
	// Shrinking the cap below the parked population trims the list.
	snap.SetFreeListCap(0)
	snap.mu.Lock()
	parked := len(snap.free)
	snap.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d runners parked after capping the free-list at 0", parked)
	}
}

// A failed run must never re-enter the free-list — its state is
// mid-replay garbage — but the residency gauge must stay balanced.
func TestFailedRunNotRecycled(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.AvgReqPages = 0.5 // rejected by the generator, after Acquire
	before := CloneGaugeStats()
	if _, err := RunWarmRecycled(snap, cfg, bad); err == nil {
		t.Fatal("bad spec did not fail")
	}
	mid := CloneGaugeStats()
	if live := mid.Live - before.Live; live != 0 {
		t.Fatalf("failed run left %d clones live", live)
	}
	// The failed runner was dropped, not parked: the next run cuts a
	// fresh clone.
	if _, err := RunWarmRecycled(snap, cfg, spec); err != nil {
		t.Fatal(err)
	}
	after := CloneGaugeStats()
	if rec := after.Recycled - mid.Recycled; rec != 0 {
		t.Fatalf("recycled %d runners after a failed run, want 0 (failed state must not be reused)", rec)
	}
	if fresh := after.Fresh - mid.Fresh; fresh != 1 {
		t.Fatalf("cut %d fresh clones after a failed run, want 1", fresh)
	}
}

// Concurrent Acquire/Release churn must keep the residency gauge
// consistent: Live returns to zero, Peak never exceeds the number of
// concurrent holders, and every acquire is accounted fresh or recycled.
// Run under -race this also exercises the free-list locking.
func TestConcurrentAcquireReleaseGauge(t *testing.T) {
	cfg, spec := snapConfig(t, ftl.CAGCOptions())
	snap, err := NewSnapshot(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 6
	snap.SetFreeListCap(workers)
	ResetCloneGauge()
	before := CloneGaugeStats()
	small := spec
	small.Requests = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := RunWarmRecycled(snap, cfg, small); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := CloneGaugeStats()
	if after.Live != before.Live {
		t.Fatalf("gauge live drifted: %d -> %d", before.Live, after.Live)
	}
	if peak := after.Peak - before.Live; peak > workers+1 {
		t.Fatalf("peak %d exceeds %d concurrent holders +1", peak, workers)
	}
	acquires := after.Fresh - before.Fresh + after.Recycled - before.Recycled
	if acquires != workers*perWorker {
		t.Fatalf("gauge saw %d acquires, want %d", acquires, workers*perWorker)
	}
	if after.Reseeds != after.Recycled {
		t.Fatalf("reseeds %d != recycled acquires %d", after.Reseeds, after.Recycled)
	}
}
