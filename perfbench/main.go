// Command perfbench is the repository's benchmark. It runs one workload
// through the simulator's public API, checks the outputs, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: end-to-end metrics with -trace 0, per-layer metrics
// (from a separate traced pass) with -trace 1.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload replay-1g --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds generated inputs, results and spans, relative to the
// repository root the benchmark runs from. run.sh builds there too.
var outDir = filepath.Join(".bench_build", "perfbench")

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64 // inputSeed of the -seed flag
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout
}

// metric is one named measurement. N is the sample count behind it
// (0 for a single reading or a count).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
	// Samples holds the values a median was taken over, for the record.
	Samples []float64 `json:"samples,omitempty"`
}

// outcome is what a workload hands back: the tally of attempted and
// failed units, every metric it measured, the spans of its traced pass,
// and a description of each failed check.
type outcome struct {
	tally   Tally
	metrics map[string]metric
	spans   []Span
	checks  []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric. The unit comes from the metric tables when the
// name is listed there.
func (o *outcome) set(name string, v float64, n int, note string) {
	o.metrics[name] = metric{Name: name, Value: v, Unit: unitOf(name), N: n, Note: note}
}

// median records the median of xs, keeping the samples in the record.
func (o *outcome) median(name string, xs []float64, note string) {
	o.set(name, Median(xs), len(xs), note)
	m := o.metrics[name]
	m.Samples = xs
	o.metrics[name] = m
}

// pct records a percentile with its sample count, noting when fewer
// than minBeyond samples lie beyond it.
func (o *outcome) pct(name string, p Pct) {
	note := fmt.Sprintf("%d beyond", p.Beyond)
	if !p.OK() {
		note = fmt.Sprintf("only %d beyond p%g; below the %d-beyond rule", p.Beyond, p.Q*100, minBeyond)
	}
	o.set(name, p.Value, p.N, note)
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"job_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics of the traced pass. A workload
// that bypasses a layer reports 0 for it.
var perLayer = []struct{ Name, Unit string }{
	{"trace.decode_s", "s"},
	{"trace.stall_ratio", "ratio"},
	{"trace.peak_reader_mb", "MiB"},
	{"sim.snapshot_s", "s"},
	{"sim.clone_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.residual_ns_per_event", "ns"},
	{"sim.reseeds", "count"},
	{"sim.reseed_mb", "MiB"},
	{"sim.acquire_us_p50", "us"},
	{"sim.acquire_us_p99", "us"},
	{"sim.p99_us", "us"},
	{"sim.write_amp", "ratio"},
	{"ftl.direct_s", "s"},
	{"ftl.ns_per_page", "ns"},
	{"ftl.direct_pages", "count"},
	{"ftl.direct_gc_invocations", "count"},
	{"ftl.direct_blocks_erased", "count"},
	{"ftl.gc_invocations", "count"},
	{"ftl.idle_gc_windows", "count"},
	{"ftl.blocks_erased", "count"},
	{"ftl.pages_migrated", "count"},
	{"ftl.gc_reads", "count"},
	{"ftl.futile_gc", "count"},
	{"dedup.hash_ops", "count"},
	{"dedup.gc_dup_dropped", "count"},
	{"dedup.gc_dedup_ratio", "ratio"},
	{"pool.steals", "count"},
	{"fleet.peak_clones", "count"},
	{"fleet.devices_per_s", "1/s"},
	{"cagc.warm_hit_ratio", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p99", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.exec_ms_p99", "ms"},
	{"serve.job_p99_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.jobs_retained", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// reportOnly lists metrics printed in the report but kept out of the
// JSON line: error_ratio travels as attempted/failed there.
var reportOnly = []struct{ Name, Unit string }{
	{"error_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, table := range [][]struct{ Name, Unit string }{endToEnd, perLayer, reportOnly} {
		for _, m := range table {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"replay-1g":      runReplay,
	"fleet-baseline": runFleet,
	"serve-mix":      runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: replay-1g, fleet-baseline or serve-mix")
	seed := fset.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fset.Int("seconds", 25, "length of the measured phase, in seconds")
	traced := fset.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	if err := fset.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds %d: must be at least 1", *seconds)
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rc := runConfig{seed: inputSeed(*seed), seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, dir: outDir}
	o, err := fn(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	o.set("peak_rss_mb", peakRSSMiB(), 0, "VmHWM of this process")
	o.set("error_ratio", o.tally.ErrorRatio(), o.tally.Attempted,
		fmt.Sprintf("%d errored, %d refused, %d failed a check", o.tally.Errored, o.tally.Refused, o.tally.Mismatch))

	mach := machineRecord()
	printReport(stdout, *name, rc, o, mach)
	if err := writeRecord(rc, *name, *seed, o, mach); err != nil {
		return err
	}
	return printResult(stdout, rc, o)
}

// inputSeed maps any -seed value to the positive seed the inputs are
// derived from (a splitmix64 finalizer): the simulator treats seed 0 as
// "default", so the flag value is not passed through as is.
func inputSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1 // small enough that derived seeds never overflow
}

// printReport writes the human-readable block: every metric measured,
// with unit and sample count, then the failed checks and the machine.
func printReport(w io.Writer, name string, rc runConfig, o *outcome, mach map[string]string) {
	fmt.Fprintf(w, "perfbench %s  input seed %d  %v  trace %v\n", name, rc.seed, rc.seconds, rc.trace)
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		line := fmt.Sprintf("  %-28s %14.6g %-9s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", o.tally.Attempted, o.tally.Failed())
	for _, c := range o.checks {
		fmt.Fprintln(w, "  CHECK FAILED:", c)
	}
	keys := make([]string, 0, len(mach))
	for k := range mach {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  machine.%s = %s\n", k, mach[k])
	}
}

// printResult writes the final JSON line.
func printResult(w io.Writer, rc runConfig, o *outcome) error {
	table := endToEnd
	if rc.trace {
		table = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(table))
	for _, m := range table {
		ms[m.Name] = value{o.metrics[m.Name].Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.checks) == 0 && o.tally.Failed() == 0, o.tally.Attempted, o.tally.Failed(), ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// writeRecord saves the run's metrics, checks, machine and spans as one
// JSON document in the output directory.
func writeRecord(rc runConfig, name string, seed int64, o *outcome, mach map[string]string) error {
	path := filepath.Join(rc.dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, btoi(rc.trace)))
	doc, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "input_seed": rc.seed, "seconds": rc.seconds.Seconds(), "trace": rc.trace,
		"machine": mach, "metrics": o.metrics, "attempted": o.tally.Attempted,
		"failed": o.tally.Failed(), "checks": o.checks, "spans": o.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB,
// or the Go runtime's reserved memory where /proc is unavailable.
func peakRSSMiB() float64 {
	if kb, ok := procStatusKB("VmHWM:"); ok {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func procStatusKB(field string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// machineRecord describes where the numbers came from. Absolute
// figures compare only between runs on one machine.
func machineRecord() map[string]string {
	m := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest(),
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		m["commit"] = c
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the simulator's Go sources and go.mod under the
// working directory, the repository root (hidden directories and the
// benchmark's own directory excluded), so a record names the code it
// measured even where no commit id is known.
func sourceDigest() string {
	const root = "."
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(base, ".") || base == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") && base != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest is a short hash of a deterministic document.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// jsonBytes renders v the way the result documents do.
func jsonBytes(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

var errNoWork = errors.New("no unit of work completed")
