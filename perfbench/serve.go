package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cagc"
	"cagc/internal/serve"
	"cagc/internal/sim"
)

// serve-mix: an in-process job server on loopback and one open-loop
// client posting run jobs at a fixed rate, configs drawn with Zipf skew
// from a pool larger than the server's 128-entry result cache.
const (
	serveDevice     = 16 << 20
	serveRequests   = 1000 // requests per Homes or Mail job: a short warm replay
	serveRate       = 160  // jobs per second
	servePerClass   = 100  // seeds per workload × scheme class: 900 configs
	serveZipfS      = 1.1
	serveSetups     = 11
	serveQueueDepth = 64
	serveConns      = 2  // keep-alive connections of the client
	serveSamples    = 12 // configs whose /result is checked against a direct run
	serveWarmupSeed = 1  // warm-up configs; the pool's seeds start above it
)

// jobConfig is one run job's identity.
type jobConfig struct {
	w    cagc.Workload
	s    cagc.Scheme
	seed int64
}

func (c jobConfig) params() cagc.Params {
	return cagc.Params{DeviceBytes: serveDevice, Requests: c.requests(), Seed: c.seed}
}

// requests sizes a job. Web-vm requests average about three times the
// pages of the other two workloads (Table II), so its jobs take a third
// as many requests; every class then runs a replay of similar length,
// and the miss latency distribution has one mode instead of two.
func (c jobConfig) requests() int {
	if c.w == cagc.WebVM {
		return serveRequests / 3
	}
	return serveRequests
}

// spec renders the job as the POST /v1/jobs body.
func (c jobConfig) spec() []byte {
	return fmt.Appendf(nil, `{"kind":"run","workload":%q,"scheme":%q,"policy":"greedy","params":{"DeviceBytes":%d,"Requests":%d,"Seed":%d}}`,
		c.w, c.s, serveDevice, c.requests(), c.seed)
}

// classes lists the nine workload × scheme snapshot classes.
func classes() []jobConfig {
	var out []jobConfig
	for _, w := range cagc.Workloads {
		for _, s := range cagc.Schemes {
			out = append(out, jobConfig{w: w, s: s})
		}
	}
	return out
}

// arrival is one scheduled job: its config and when it is due, relative
// to the start of the phase.
type arrival struct {
	cfg jobConfig
	at  time.Duration
}

// serveSchedule derives the config pool, its popularity order and the
// arrival schedule from the seed. Arrivals come in blocks of nine, one
// per class in a seeded order, so every seed offers the same class mix;
// within a class the config is drawn with Zipf skew.
func serveSchedule(seed int64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	cls := classes()
	pools := make([][]jobConfig, len(cls))
	for c, base := range cls {
		for i := 0; i < servePerClass; i++ {
			base.seed = serveWarmupSeed + 1 + int64(i)
			pools[c] = append(pools[c], base)
		}
		rng.Shuffle(len(pools[c]), func(i, j int) { pools[c][i], pools[c][j] = pools[c][j], pools[c][i] })
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, servePerClass-1)
	out := make([]arrival, int(d.Seconds()*serveRate))
	var order []int
	for i := range out {
		if i%len(cls) == 0 {
			order = rng.Perm(len(cls))
		}
		cfg := pools[order[i%len(cls)]][zipf.Uint64()]
		out[i] = arrival{cfg: cfg, at: time.Duration(i) * time.Second / serveRate}
	}
	return out
}

// server is one in-process serve.Server behind its HTTP handler on a
// loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Workers: max(1, runtime.NumCPU()-1), QueueDepth: serveQueueDepth})
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the job engine down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// jobSample is what the client observed of one job.
type jobSample struct {
	cfg     jobConfig
	cached  bool
	refused bool
	err     error
	lag     time.Duration // connection obtained − due
	total   time.Duration // due → last byte of /result
	queued  time.Duration // Job.State().QueuedFor
	ran     time.Duration // Job.State().RanFor
	events  uint64
	body    []byte
}

type client struct {
	http *http.Client
	s    *server
	rec  *Recorder
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
}

// do runs one job end to end: submit, wait for completion on the job's
// Done channel, fetch the result document.
func (c *client) do(run string, cfg jobConfig, due time.Time) (js jobSample) {
	js.cfg = cfg
	root := c.rec.Begin("serve.job", run, 0)
	defer c.rec.End(root)
	var gotConn atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn.CompareAndSwap(0, time.Now().UnixNano()) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.s.url+"/v1/jobs", bytes.NewReader(cfg.spec()))
	if err != nil {
		js.err = err
		return js
	}
	req.Header.Set("Content-Type", "application/json")
	id := c.rec.Begin("serve.POST /v1/jobs", run, root)
	code, body, err := roundTrip(c.http, req)
	c.rec.End(id)
	if g := gotConn.Load(); g != 0 {
		js.lag = time.Unix(0, g).Sub(due)
	}
	switch {
	case err != nil:
		js.err = err
		return js
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		js.refused = true
		return js
	case code != http.StatusOK && code != http.StatusAccepted:
		js.err = fmt.Errorf("POST /v1/jobs: status %d: %s", code, body)
		return js
	}
	var st struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		js.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return js
	}
	js.cached = st.Cached
	j, ok := c.s.srv.Get(st.ID)
	if !ok {
		js.err = fmt.Errorf("job %s not found", st.ID)
		return js
	}
	id = c.rec.Begin("serve.Job.Done", run, root)
	<-j.Done()
	c.rec.End(id)
	state := j.State()
	js.queued, js.ran, js.events = state.QueuedFor, state.RanFor, state.Events
	if state.Status != serve.StatusDone {
		js.err = fmt.Errorf("job %s: %s: %s", st.ID, state.Status, state.Err)
		return js
	}
	id = c.rec.Begin("serve.GET /result", run, root)
	get, err := http.NewRequest(http.MethodGet, c.s.url+"/v1/jobs/"+st.ID+"/result", nil)
	if err == nil {
		code, js.body, err = roundTrip(c.http, get)
	}
	c.rec.End(id)
	js.total = time.Since(due)
	switch {
	case err != nil:
		js.err = err
	case code != http.StatusOK:
		js.err = fmt.Errorf("GET result: status %d", code)
	}
	return js
}

// roundTrip sends req and reads the whole response body.
func roundTrip(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// warmUp runs one job per snapshot class, so all nine warm snapshots
// exist before the measured phase.
func (c *client) warmUp() error {
	for _, cfg := range classes() {
		cfg.seed = serveWarmupSeed
		if js := c.do("warmup", cfg, time.Now()); js.err != nil || js.refused {
			return fmt.Errorf("warm-up %s/%s: refused=%v: %v", cfg.w, cfg.s, js.refused, js.err)
		}
	}
	return nil
}

// servePhase is one server's measured open-loop phase.
type servePhase struct {
	samples  []jobSample
	metrics  serve.Metrics
	clones   sim.CloneStats // gauge since the phase began
	retained int
	warm     cagc.CacheStats
}

// startWarm resets the warm registry, starts a server and warms it up;
// it returns the set-up time.
func startWarm(hc *http.Client) (*server, time.Duration, error) {
	cagc.ResetWarmCache()
	hc.CloseIdleConnections()
	runtime.GC()
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	if err := (&client{http: hc, s: s}).warmUp(); err != nil {
		return nil, 0, errors.Join(err, s.stop())
	}
	return s, time.Since(t0), nil
}

// runPhase drives the schedule against s in open loop: each job is sent
// when due, whatever the state of earlier ones.
func runPhase(hc *http.Client, s *server, sched []arrival, rec *Recorder) servePhase {
	sim.ResetCloneGauge()
	c := &client{http: hc, s: s, rec: rec}
	samples := make([]jobSample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i] = c.do(fmt.Sprintf("job-%d", i), a.cfg, due)
		}()
	}
	wg.Wait()
	return servePhase{
		samples:  samples,
		metrics:  s.srv.MetricsSnapshot(),
		clones:   sim.CloneGaugeStats(),
		retained: len(s.srv.Jobs()),
		warm:     cagc.WarmCacheStats(),
	}
}

func runServe(rc runConfig) (*outcome, error) {
	o := newOutcome()
	sched := serveSchedule(rc.seed, rc.seconds)
	hc := newClient()
	defer hc.CloseIdleConnections()

	var setups []float64
	var s *server
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = startWarm(hc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	o.median("setup_s", setups, "server start + warm-up of the 9 snapshot classes, median")
	ph := runPhase(hc, s, sched, nil)
	if err := s.stop(); err != nil {
		return nil, err
	}
	checkServe(o, ph)
	setServeEndToEnd(o, ph)
	setServeLayers(o, ph)

	if rc.trace {
		rec := NewRecorder()
		s, _, err := startWarm(hc)
		if err != nil {
			return nil, err
		}
		traced := runPhase(hc, s, sched, rec)
		if err := s.stop(); err != nil {
			return nil, err
		}
		checkServe(o, traced)
		setServeLayers(o, traced)
		o.spans = rec.Spans()
		by := SelfByName(o.spans)
		ms := func(name string) []float64 {
			out := append([]float64(nil), by[name].Samples...)
			for i := range out {
				out[i] *= 1e3
			}
			return out
		}
		o.pct("serve.admit_ms_p50", Percentile(ms("serve.POST /v1/jobs"), 0.50))
		o.pct("serve.admit_ms_p99", Percentile(ms("serve.POST /v1/jobs"), 0.99))
		o.pct("serve.result_ms_p50", Percentile(ms("serve.GET /result"), 0.50))
		o.set("bench.trace_overhead", missP50(traced)/missP50(ph), 0, "traced miss p50 ÷ untraced miss p50")
	}
	return o, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// split returns the per-job values of the successful misses and hits.
func split(ph servePhase, f func(jobSample) float64) (miss, hit []float64) {
	for _, js := range ph.samples {
		switch {
		case js.err != nil || js.refused:
		case js.cached:
			hit = append(hit, f(js))
		default:
			miss = append(miss, f(js))
		}
	}
	return miss, hit
}

func missP50(ph servePhase) float64 {
	miss, _ := split(ph, func(js jobSample) float64 { return msOf(js.total) })
	return Percentile(miss, 0.50).Value
}

func setServeEndToEnd(o *outcome, ph servePhase) {
	total, _ := split(ph, func(js jobSample) float64 { return msOf(js.total) })
	o.pct("job_p50_ms", Percentile(total, 0.50))
	rate, _ := split(ph, func(js jobSample) float64 { return float64(js.events) / js.ran.Seconds() })
	o.median("events_per_s", rate, "per executed job: events ÷ Job.State().RanFor, median")
}

func setServeLayers(o *outcome, ph servePhase) {
	total, hitTotal := split(ph, func(js jobSample) float64 { return msOf(js.total) })
	queued, _ := split(ph, func(js jobSample) float64 { return msOf(js.queued) })
	ran, _ := split(ph, func(js jobSample) float64 { return msOf(js.ran) })
	lagMiss, lagHit := split(ph, func(js jobSample) float64 { return msOf(js.lag) })
	o.pct("serve.job_p99_ms", Percentile(total, 0.99))
	o.pct("serve.hit_p50_ms", Percentile(hitTotal, 0.50))
	o.pct("serve.hit_p99_ms", Percentile(hitTotal, 0.99))
	o.pct("serve.queue_wait_ms_p50", Percentile(queued, 0.50))
	o.pct("serve.queue_wait_ms_p99", Percentile(queued, 0.99))
	o.pct("serve.exec_ms_p50", Percentile(ran, 0.50))
	o.pct("serve.exec_ms_p99", Percentile(ran, 0.99))
	o.pct("loadgen.lag_p99_ms", Percentile(append(lagMiss, lagHit...), 0.99))
	cs := ph.metrics.Cache
	o.set("serve.cache_hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses), int(cs.Hits+cs.Misses), "result cache, warm-up included")
	refused := 0
	for _, js := range ph.samples {
		if js.refused {
			refused++
		}
	}
	o.set("serve.rejected", float64(refused), len(ph.samples), "429 or 503 answers")
	o.set("serve.jobs_retained", float64(ph.retained), 0, "len(Server.Jobs()) at the end, warm-up included")
	o.set("sim.reseeds", float64(ph.clones.Reseeds), 0, "clone gauge over the phase")
	o.set("sim.reseed_mb", float64(ph.clones.ReseedBytes)/(1<<20), 0, "clone gauge over the phase")
	o.set("fleet.peak_clones", float64(ph.clones.Peak), 0, "clone gauge peak over the phase")
	o.set("cagc.warm_hit_ratio", ratio(ph.warm.Hits, ph.warm.Hits+ph.warm.Misses), int(ph.warm.Hits+ph.warm.Misses), "since the warm-up")
	o.set("pool.steals", 0, 0, "run jobs do not use the work-stealing pool")
}

// checkServe tallies the phase's jobs and checks their documents: every
// answer for one config is byte-identical, and for a sample of configs
// it equals cagc.WriteJSONKey of a direct cagc.Run.
func checkServe(o *outcome, ph servePhase) {
	first := map[jobConfig][]byte{}
	var sampled []jobConfig
	for i, js := range ph.samples {
		o.tally.Attempted++
		switch {
		case js.refused:
			o.tally.Refused++
			continue
		case js.err != nil:
			o.tally.Errored++
			o.fail("job %d: %v", i, js.err)
			continue
		}
		want, seen := first[js.cfg]
		if !seen {
			first[js.cfg] = js.body
			if len(sampled) < serveSamples {
				sampled = append(sampled, js.cfg)
			}
			continue
		}
		if !bytes.Equal(js.body, want) {
			o.tally.Mismatch++
			o.fail("job %d: /result %s differs from the config's first answer %s", i, digest(js.body), digest(want))
		}
	}
	for _, cfg := range sampled {
		p := cfg.params()
		res, err := cagc.Run(cfg.w, cfg.s, "greedy", p)
		var doc bytes.Buffer
		if err == nil {
			err = cagc.WriteJSONKey(&doc, res, cagc.ConfigKey(cfg.w, cfg.s, "greedy", p))
		}
		if err != nil || !bytes.Equal(doc.Bytes(), first[cfg]) {
			o.tally.Mismatch++
			o.fail("%s/%s seed %d: /result differs from a direct run (%v)", cfg.w, cfg.s, cfg.seed, err)
		}
	}
}
