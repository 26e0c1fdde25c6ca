package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cagc"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/pool"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// fleet-baseline: Baseline × greedy over a population of perturbed
// 16 MiB Mail devices, a few hundred requests each.
const (
	fleetDevices  = 3000
	fleetRequests = 400
	fleetSetups   = 31   // set-ups per run; setup_s is their median
	acquireCycles = 1200 // acquire probe cycles: ≥10 samples beyond p99
)

var fleetScheme = cagc.Baseline

func fleetParams(seed int64, devices int) (cagc.Params, cagc.FleetParams) {
	return cagc.Params{Requests: fleetRequests, Seed: seed},
		cagc.FleetParams{
			Devices:        devices,
			Workers:        runtime.GOMAXPROCS(0),
			FleetSeed:      seed*7919 + 1,
			UtilSpread:     0.08,
			UtilClasses:    4,
			StaggerClasses: 2,
			Diurnal:        0.4,
		}
}

// fleetRun is one measured fleet execution.
type fleetRun struct {
	wall     time.Duration
	res      *cagc.FleetResult
	doc      []byte
	steals   uint64
	reseeds  uint64
	reseedMB float64
	peak     int
}

func runFleetOnce(seed int64) (fleetRun, error) {
	p, fp := fleetParams(seed, fleetDevices)
	runtime.GC()
	sim.ResetCloneGauge()
	steals0 := pool.Steals()
	t0 := time.Now()
	fr, err := cagc.RunFleet(cagc.Mail, fleetScheme, "greedy", p, fp)
	wall := time.Since(t0)
	if err != nil {
		return fleetRun{}, err
	}
	cs := sim.CloneGaugeStats()
	var doc bytes.Buffer
	if err := cagc.WriteFleetJSON(&doc, fr.Result); err != nil {
		return fleetRun{}, err
	}
	return fleetRun{
		wall: wall, res: fr.Result, doc: doc.Bytes(),
		steals: pool.Steals() - steals0, reseeds: cs.Reseeds,
		reseedMB: float64(cs.ReseedBytes) / (1 << 20), peak: cs.Peak,
	}, nil
}

// measureFleet runs whole fleets while the next one fits in d (two at
// least) and checks every fleet document against the first, or against
// want when given.
func measureFleet(o *outcome, seed int64, d time.Duration, want []byte, rec *Recorder) []fleetRun {
	var runs []fleetRun
	start := time.Now()
	for len(runs) < 2 || time.Since(start)+runs[len(runs)-1].wall <= d {
		o.tally.Attempted += fleetDevices
		var fr fleetRun
		err := rec.Time("cagc.RunFleet", fmt.Sprintf("fleet-%d", len(runs)), 0, func() (err error) {
			fr, err = runFleetOnce(seed)
			return err
		})
		if err != nil {
			o.tally.Errored += fleetDevices
			o.fail("fleet %d: %v", len(runs), err)
			if o.tally.Errored > 2*fleetDevices {
				break
			}
			continue
		}
		if want == nil {
			want = fr.doc
		}
		if !bytes.Equal(fr.doc, want) || fr.res.Devices != fleetDevices {
			o.tally.Mismatch += fleetDevices
			o.fail("fleet %d: document %s differs from %s", len(runs), digest(fr.doc), digest(want))
		}
		runs = append(runs, fr)
	}
	return runs
}

func runFleet(rc runConfig) (*outcome, error) {
	o := newOutcome()
	// Set-up: every class snapshot, built through the warm registry by a
	// one-device fleet on an empty registry.
	var setups []float64
	for i := 0; i < fleetSetups; i++ {
		cagc.ResetWarmCache()
		runtime.GC()
		p, fp := fleetParams(rc.seed, 1)
		t0 := time.Now()
		if _, err := cagc.RunFleet(cagc.Mail, fleetScheme, "greedy", p, fp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.median("setup_s", setups, "median of set-ups on an empty warm registry")

	runs := measureFleet(o, rc.seed, rc.seconds, nil, nil)
	if len(runs) == 0 {
		return nil, errNoWork
	}
	var rates, walls, devs, steals, reseeds, reseedMB []float64
	peak := 0
	for _, fr := range runs {
		rates = append(rates, float64(fr.res.Events)/fr.wall.Seconds())
		walls = append(walls, float64(fr.wall)/float64(time.Millisecond))
		devs = append(devs, float64(fr.res.Devices)/fr.wall.Seconds())
		steals = append(steals, float64(fr.steals))
		reseeds = append(reseeds, float64(fr.reseeds))
		reseedMB = append(reseedMB, fr.reseedMB)
		peak = max(peak, fr.peak)
	}
	res := runs[0].res
	o.median("events_per_s", rates, "fleet events ÷ fleet wall, median over fleets")
	o.median("job_p50_ms", walls, "median host time of one fleet")
	o.median("fleet.devices_per_s", devs, "median over fleets")
	o.median("pool.steals", steals, "pool.Steals() delta per fleet, median")
	o.median("sim.reseeds", reseeds, "clone gauge delta per fleet, median")
	o.median("sim.reseed_mb", reseedMB, "clone gauge delta per fleet, median")
	o.set("fleet.peak_clones", float64(peak), len(runs), "clone gauge peak, max over fleets")
	o.set("sim.events", float64(res.Events), 0, "fleet document")
	o.set("sim.p99_us", float64(res.Latency.P99)/1e3, int(res.Latency.Count), "merged simulated response time")
	o.set("sim.write_amp", res.WA.Mean, res.Devices, "mean over devices, simulated")
	var erased uint64
	for _, d := range res.PerDevice {
		erased += d.Erases
	}
	o.set("ftl.blocks_erased", float64(erased), res.Devices, "sum over devices")
	wc := cagc.WarmCacheStats()
	o.set("cagc.warm_hit_ratio", ratio(wc.Hits, wc.Hits+wc.Misses), int(wc.Hits+wc.Misses), "since the last set-up")

	if rc.trace {
		rec := NewRecorder()
		traced := measureFleet(o, rc.seed, rc.seconds/2, runs[0].doc, rec)
		if err := acquireProbe(rec, rc.seed); err != nil {
			return nil, err
		}
		o.spans = rec.Spans()
		by := SelfByName(o.spans)
		o.set("bench.trace_overhead", Median(by["cagc.RunFleet"].Samples)*1e3/Median(walls), len(traced),
			"traced RunFleet span ÷ untraced fleet wall, medians")
		o.set("sim.snapshot_s", Median(by["sim.NewSnapshot"].Samples), by["sim.NewSnapshot"].Count, "one class snapshot, probe")
		acq := by["sim.Snapshot.Acquire"].Samples
		for i := range acq {
			acq[i] *= 1e6
		}
		o.pct("sim.acquire_us_p50", Percentile(acq, 0.50))
		o.pct("sim.acquire_us_p99", Percentile(acq, 0.99))
		o.set("sim.replay_s", Median(by["sim.Runner.Replay"].Samples), by["sim.Runner.Replay"].Count, "probe: one device's replay")
	}
	return o, nil
}

// acquireProbe builds the base class snapshot of the fleet and times
// Snapshot.Acquire → short replay → Release cycles on it, the path every
// fleet device takes.
func acquireProbe(rec *Recorder, seed int64) error {
	pol, err := ftl.PolicyByName("greedy", seed)
	if err != nil {
		return err
	}
	opts := fleetScheme.Options()
	opts.Policy = pol
	cfg := sim.Config{Device: flash.ScaledConfig(16 << 20), Options: opts, Utilization: 0.55}
	spec, err := trace.Preset(trace.Mail, sim.LogicalPagesOf(cfg), fleetRequests, seed)
	if err != nil {
		return err
	}
	var snap *sim.Snapshot
	if err := rec.Time("sim.NewSnapshot", "acquire", 0, func() (err error) {
		snap, err = sim.NewSnapshot(cfg, spec)
		return err
	}); err != nil {
		return err
	}
	for i := 0; i < acquireCycles; i++ {
		run := fmt.Sprintf("acquire-%d", i)
		var r *sim.Runner
		if err := rec.Time("sim.Snapshot.Acquire", run, 0, func() (err error) {
			r, err = snap.Acquire(cfg)
			return err
		}); err != nil {
			return err
		}
		s := spec
		s.Seed = seed*int64(acquireCycles) + int64(i)
		gen, err := trace.NewGenerator(s)
		if err != nil {
			return err
		}
		if err := rec.Time("sim.Runner.Replay", run, 0, func() error {
			_, err := r.Replay(gen, snap.Offset(), spec.Name)
			return err
		}); err != nil {
			return err
		}
		snap.Release(r)
	}
	return nil
}
