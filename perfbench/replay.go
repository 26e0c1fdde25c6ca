package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cagc"
	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/ftl"
	"cagc/internal/sim"
	"cagc/internal/trace"
)

// replay-1g: Mail × CAGC × greedy on a 1 GiB device, a long binary trace
// file replayed through cagc.ReplayFile with decode-ahead on.
const (
	replayDevice   = 1 << 30
	replayRequests = 600_000
	replaySetups   = 25   // set-ups per run; setup_s is their median
	directChunk    = 4096 // requests decoded per chunk by the FTL probe
)

var replayScheme = cagc.CAGC

// replayParams is the run configuration every replay-1g call shares.
func replayParams(seed int64) cagc.Params {
	return cagc.Params{DeviceBytes: replayDevice, Requests: replayRequests, Seed: seed}
}

// writeReplayTrace generates the seed's Mail trace of n requests into
// dir and returns its path.
func writeReplayTrace(dir string, seed int64, n int) (string, error) {
	p := replayParams(seed)
	p.Requests = n
	spec, err := cagc.WorkloadSpec(cagc.Mail, p)
	if err != nil {
		return "", err
	}
	gen, err := cagc.NewTraceGenerator(spec)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("replay-1g-seed%d-%d.ctr", seed, n))
	if _, err := cagc.WriteTraceFile(path, gen); err != nil {
		return "", err
	}
	return path, nil
}

// replayRun is one untraced replay's result.
type replayRun struct {
	wall   time.Duration
	events uint64
	doc    []byte // Summarize JSON, the deterministic digest
	res    *cagc.Result
	stream cagc.TraceStreamStats
}

func replayFile(path string, seed int64) (replayRun, error) {
	var rr replayRun
	t0 := time.Now()
	res, err := cagc.ReplayFile(path, cagc.Mail, replayScheme, "greedy", replayParams(seed),
		cagc.ReplayFileOptions{Stats: &rr.stream})
	rr.wall = time.Since(t0)
	if err != nil {
		return rr, err
	}
	rr.res, rr.events = res, cagc.EventsOf(res)
	rr.doc, err = jsonBytes(cagc.Summarize(res))
	return rr, err
}

func runReplay(rc runConfig) (*outcome, error) {
	o := newOutcome()
	path, err := writeReplayTrace(rc.dir, rc.seed, replayRequests)
	if err != nil {
		return nil, err
	}
	tiny, err := writeReplayTrace(rc.dir, rc.seed, 1)
	if err != nil {
		return nil, err
	}

	// Set-up: device build, preconditioning through the warm registry
	// and the clone, paid by a one-request replay on an empty registry.
	var setups []float64
	for i := 0; i < replaySetups; i++ {
		cagc.ResetWarmCache()
		runtime.GC()
		t0 := time.Now()
		if _, err := cagc.ReplayFile(tiny, cagc.Mail, replayScheme, "greedy", replayParams(rc.seed), cagc.ReplayFileOptions{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.median("setup_s", setups, "median of set-ups on an empty warm registry")

	// Measured phase: whole-file replays while the next one fits in the
	// time (two at least, so repeats can be compared).
	var runs []replayRun
	start := time.Now()
	for len(runs) < 2 || time.Since(start)+runs[len(runs)-1].wall <= rc.seconds {
		o.tally.Attempted++
		runtime.GC() // the previous replay's clone is garbage: free it first
		rr, err := replayFile(path, rc.seed)
		if err != nil {
			o.tally.Errored++
			o.fail("replay %d: %v", len(runs), err)
			continue
		}
		if len(runs) > 0 && string(rr.doc) != string(runs[0].doc) {
			o.tally.Mismatch++
			o.fail("replay %d: summary %s differs from the first replay's %s", len(runs), digest(rr.doc), digest(runs[0].doc))
		}
		runs = append(runs, rr)
		if o.tally.Errored > 2 {
			break
		}
	}
	if len(runs) == 0 {
		return nil, errNoWork
	}
	var rates, walls, stalls []float64
	var peakReader int64
	for _, rr := range runs {
		rates = append(rates, float64(rr.events)/rr.wall.Seconds())
		walls = append(walls, float64(rr.wall)/float64(time.Millisecond))
		stalls = append(stalls, rr.stream.StallRatio())
		peakReader = max(peakReader, rr.stream.PeakLiveBytes)
	}
	first := runs[0]
	o.median("events_per_s", rates, "median over whole-file replays")
	o.median("job_p50_ms", walls, "median host time of one whole-file replay")
	o.median("trace.stall_ratio", stalls, "ReplayFileOptions.Stats, median over replays")
	o.set("trace.peak_reader_mb", float64(peakReader)/(1<<20), len(runs), "ReplayFileOptions.Stats, max over replays")
	setResultCounters(o, first.res)
	wc := cagc.WarmCacheStats()
	o.set("cagc.warm_hit_ratio", ratio(wc.Hits, wc.Hits+wc.Misses), int(wc.Hits+wc.Misses), "since the last set-up")

	if rc.trace {
		if err := traceReplay(rc, o, path, first, Median(walls)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setResultCounters records the deterministic simulated statistics of
// one replay.
func setResultCounters(o *outcome, res *cagc.Result) {
	s := cagc.Summarize(res)
	f := res.FTL
	o.set("sim.events", float64(cagc.EventsOf(res)), 0, "cagc.EventsOf")
	o.set("sim.p99_us", s.Latency.P99Us, int(s.Latency.Count), "simulated response time")
	o.set("sim.write_amp", s.WriteAmplification, 0, "simulated")
	o.set("ftl.gc_invocations", float64(f.GCInvocations), 0, "")
	o.set("ftl.idle_gc_windows", float64(f.IdleGCWindows), 0, "")
	o.set("ftl.blocks_erased", float64(f.BlocksErased), 0, "")
	o.set("ftl.pages_migrated", float64(f.PagesMigrated), 0, "")
	o.set("ftl.gc_reads", float64(f.GCReads), 0, "")
	o.set("ftl.futile_gc", float64(f.FutileGC), 0, "")
	o.set("dedup.hash_ops", float64(f.HashOps), 0, "")
	o.set("dedup.gc_dup_dropped", float64(f.GCDupDropped), 0, "")
	o.set("dedup.gc_dedup_ratio", ratio(f.GCDupDropped, f.GCReads), int(f.GCReads), "GC drops ÷ GC reads")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayConfig rebuilds the simulator configuration cagc.ReplayFile
// uses for replay-1g, so the traced pass can call the layers one by one.
// The traced pass checks its summary against the untraced replay's,
// which proves the two configurations agree.
func replayConfig(seed int64) (sim.Config, trace.Spec, error) {
	pol, err := ftl.PolicyByName("greedy", seed)
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	opts := replayScheme.Options()
	opts.Policy = pol
	sched, err := event.ParseSched("")
	if err != nil {
		return sim.Config{}, trace.Spec{}, err
	}
	cfg := sim.Config{
		Device:      flash.ScaledConfig(replayDevice),
		Options:     opts,
		Utilization: 0.55, // cagc.Params' default
		Sched:       sched,
	}
	spec, err := trace.Preset(trace.Mail, sim.LogicalPagesOf(cfg), replayRequests, seed)
	return cfg, spec, err
}

// traceReplay is the traced pass: spans around sim.NewSnapshot,
// Snapshot.NewRunner, trace.OpenFile, Runner.Replay and the invariant
// check, then two probes — a decode-only drain of the file and the
// file's page operations applied straight to the FTL.
func traceReplay(rc runConfig, o *outcome, path string, untraced replayRun, untracedMs float64) error {
	rec := NewRecorder()
	cfg, spec, err := replayConfig(rc.seed)
	if err != nil {
		return err
	}
	var snap *sim.Snapshot
	var tracedMs []float64
	start := time.Now()
	for i := 0; i == 0 || (i < 8 && time.Since(start) < rc.seconds/2); i++ {
		run := fmt.Sprintf("replay-%d", i)
		root := rec.Begin("bench.replay", run, 0)
		err := rec.Time("sim.NewSnapshot", run, root, func() (err error) {
			snap, err = sim.NewSnapshot(cfg, spec)
			return err
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		var runner *sim.Runner
		if err := rec.Time("sim.Snapshot.NewRunner", run, root, func() (err error) {
			runner, err = snap.NewRunner(cfg)
			return err
		}); err != nil {
			return err
		}
		var st *trace.Stream
		var closer func() error
		if err := rec.Time("trace.OpenFile", run, root, func() (err error) {
			st, closer, err = trace.OpenFile(path, trace.OpenOptions{}, trace.StreamOptions{})
			return err
		}); err != nil {
			return err
		}
		var res *sim.Result
		err = rec.Time("sim.Runner.Replay", run, root, func() (err error) {
			res, err = runner.Replay(st, snap.Offset(), string(cagc.Mail))
			return err
		})
		closer()
		tracedMs = append(tracedMs, float64(time.Since(t0))/float64(time.Millisecond))
		o.tally.Attempted++
		if err != nil {
			o.tally.Errored++
			o.fail("traced replay %d: %v", i, err)
			rec.End(root)
			continue
		}
		bad := false
		if err := rec.Time("ftl.CheckInvariants", run, root, runner.FTL().CheckInvariants); err != nil {
			bad = true
			o.fail("traced replay %d: FTL invariants: %v", i, err)
		}
		rec.End(root)
		if doc, err := jsonBytes(cagc.Summarize(res)); err != nil || string(doc) != string(untraced.doc) {
			bad = true
			o.fail("traced replay %d: summary differs from the untraced replay's", i)
		}
		if bad {
			o.tally.Mismatch++
		}
	}

	requests, err := drainProbe(rec, path)
	if err != nil {
		return err
	}
	o.tally.Attempted++
	if requests != replayRequests {
		o.tally.Mismatch++
		o.fail("decode drain read %d requests, want %d", requests, replayRequests)
	}
	pages, probe, err := directProbe(rec, cfg, snap, path)
	if err != nil {
		return err
	}

	spans := rec.Spans()
	o.spans = spans
	by := SelfByName(spans)
	med := func(name string) float64 { return Median(by[name].Samples) }
	events := float64(untraced.events)
	replayS := med("sim.Runner.Replay")
	directS := med("probe.ftl_direct")
	o.set("trace.decode_s", med("probe.decode_drain"), by["probe.decode_drain"].Count, "trace.OpenFile + Stream.Next, no simulation")
	o.set("sim.snapshot_s", med("sim.NewSnapshot"), by["sim.NewSnapshot"].Count, "median span self time")
	o.set("sim.clone_s", med("sim.Snapshot.NewRunner"), by["sim.Snapshot.NewRunner"].Count, "median span self time")
	o.set("sim.replay_s", replayS, by["sim.Runner.Replay"].Count, "median span self time")
	o.set("sim.ns_per_event", replayS*1e9/events, 0, "sim.replay_s ÷ sim.events")
	o.set("ftl.direct_s", directS, 1, "probe self time: FTL Write/Read/Trim without the event loop")
	o.set("ftl.direct_pages", float64(pages), 0, "page operations the probe applied")
	o.set("ftl.direct_gc_invocations", float64(probe.GCInvocations), 0, "the probe's own: no idle GC, so GC runs in the foreground")
	o.set("ftl.direct_blocks_erased", float64(probe.BlocksErased), 0, "the probe's own")
	o.set("ftl.ns_per_page", directS*1e9/float64(pages), 0, "ftl.direct_s ÷ ftl.direct_pages")
	o.set("sim.residual_ns_per_event", (replayS-directS)*1e9/events, 0,
		"(sim.replay_s − ftl.direct_s) ÷ sim.events: event loop and timelines; below 0 when the probe's foreground GC outweighs them")
	o.set("bench.trace_overhead", Median(tracedMs)/untracedMs, len(tracedMs), "traced clone+open+replay ÷ untraced ReplayFile")
	return nil
}

// drainProbe decodes the whole file with no simulation and returns the
// request count.
func drainProbe(rec *Recorder, path string) (int, error) {
	n := 0
	err := rec.Time("probe.decode_drain", "drain", 0, func() error {
		st, closer, err := trace.OpenFile(path, trace.OpenOptions{}, trace.StreamOptions{})
		if err != nil {
			return err
		}
		defer closer()
		for {
			if _, ok := st.Next(); !ok {
				return st.Err()
			}
			n++
		}
	})
	return n, err
}

// directProbe applies the file's page operations straight to the FTL of
// a fresh clone of snap, with no event loop and hence no idle GC. It
// decodes a chunk at a time inside child spans, so the probe span's
// self time is the FTL's share. It returns the page operations applied
// and the FTL's counters for the probe.
func directProbe(rec *Recorder, cfg sim.Config, snap *sim.Snapshot, path string) (int, ftl.Stats, error) {
	var runner *sim.Runner
	if err := rec.Time("sim.Snapshot.NewRunner", "direct", 0, func() (err error) {
		runner, err = snap.NewRunner(cfg)
		return err
	}); err != nil {
		return 0, ftl.Stats{}, err
	}
	f := runner.FTL()
	before := f.Stats()
	st, closer, err := trace.OpenFile(path, trace.OpenOptions{}, trace.StreamOptions{})
	if err != nil {
		return 0, ftl.Stats{}, err
	}
	defer closer()
	offset := snap.Offset()
	pages := 0
	chunk := make([]trace.Request, 0, directChunk)
	var fps []dedup.Fingerprint
	root := rec.Begin("probe.ftl_direct", "direct", 0)
	defer rec.End(root)
	for {
		// Copy a chunk out of the stream: its buffers are recycled.
		chunk, fps = chunk[:0], fps[:0]
		id := rec.Begin("trace.Stream.Next", "direct", root)
		for len(chunk) < directChunk {
			r, ok := st.Next()
			if !ok {
				break
			}
			if r.FPs != nil {
				at := len(fps)
				fps = append(fps, r.FPs...)
				r.FPs = fps[at:len(fps):len(fps)]
			}
			chunk = append(chunk, r)
		}
		rec.End(id)
		if len(chunk) == 0 {
			after := f.Stats()
			return pages, ftl.Stats{
				GCInvocations: after.GCInvocations - before.GCInvocations,
				BlocksErased:  after.BlocksErased - before.BlocksErased,
			}, st.Err()
		}
		for _, r := range chunk {
			at := offset + r.At
			for i := 0; i < r.Pages; i++ {
				lpn := r.LPN + uint64(i)
				if lpn >= f.LogicalPages() {
					break
				}
				var err error
				switch r.Op {
				case trace.OpWrite:
					_, err = f.Write(at, lpn, r.FPs[i])
				case trace.OpRead:
					_, err = f.Read(at, lpn)
				case trace.OpTrim:
					_, err = f.Trim(at, lpn)
				}
				if err != nil {
					return pages, ftl.Stats{}, fmt.Errorf("direct FTL probe: %w", err)
				}
				pages++
			}
		}
	}
}
