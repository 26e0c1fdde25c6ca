package metrics

import (
	"encoding/binary"
	"sort"

	"cagc/internal/event"
)

// TimeSeries aggregates observations into fixed-width windows of
// virtual time — the view that makes GC interference visible as
// latency spikes aligned with collection activity.
//
// Simulation observations arrive in nondecreasing time, so the series
// keeps one open window and, once time moves past it, appends it to a
// compact append-only log of uvarints — Δwindow, count, sum, max — so
// a retained series costs a few bytes per populated window rather than
// a fixed-size slot for every window up to the last one. Record on the
// in-order path is an add into the open window, or a handful of varint
// appends when a window closes. Observations at negative window
// numbers, or behind the open window, fall back to a lazily built map
// that Windows merges back in.
//
// Sums are kept in integer nanoseconds. Mean converts the sum to
// float64 once, which is the value a running float64 sum of the same
// observations would hold as long as every partial sum stays below
// 2^53 ns (about 104 days of summed latency per window): below that
// bound every partial float sum is an exact integer.
type TimeSeries struct {
	width event.Time
	log   []byte // closed windows in ascending order
	last  int64  // window number of the last logged window
	open  windowAgg
	openK int64                // window number of open; meaningful when open.count > 0
	late  map[int64]*windowAgg // negative or behind-the-open windows
}

type windowAgg struct {
	count uint64
	sum   uint64 // integer ns
	max   event.Time
}

func (w *windowAgg) record(v event.Time) {
	w.count++
	w.sum += uint64(v)
	if v > w.max {
		w.max = v
	}
}

// merge folds o into w.
func (w *windowAgg) merge(o *windowAgg) {
	w.count += o.count
	w.sum += o.sum
	if o.max > w.max {
		w.max = o.max
	}
}

// WindowStat is one exported window.
type WindowStat struct {
	Start event.Time // window start (inclusive)
	Count uint64
	Mean  float64 // mean observation (ns)
	Max   event.Time
}

// NewTimeSeries makes a series with the given window width (values <= 0
// default to 10 ms).
func NewTimeSeries(width event.Time) *TimeSeries {
	if width <= 0 {
		width = 10 * event.Millisecond
	}
	return &TimeSeries{width: width}
}

// Width returns the window width.
func (ts *TimeSeries) Width() event.Time { return ts.width }

// Record adds an observation v occurring at time at.
func (ts *TimeSeries) Record(at event.Time, v event.Time) {
	if v < 0 {
		v = 0
	}
	k := int64(at / ts.width)
	switch {
	case ts.open.count > 0 && k == ts.openK:
	case k >= 0 && (ts.open.count == 0 || k > ts.openK):
		ts.closeOpen()
		ts.openK = k
	default:
		if ts.late == nil {
			ts.late = make(map[int64]*windowAgg)
		}
		w := ts.late[k]
		if w == nil {
			w = &windowAgg{}
			ts.late[k] = w
		}
		w.record(v)
		return
	}
	ts.open.record(v)
}

// closeOpen appends the open window (if any) to the log.
func (ts *TimeSeries) closeOpen() {
	if ts.open.count == 0 {
		return
	}
	ts.log = binary.AppendUvarint(ts.log, uint64(ts.openK-ts.last))
	ts.log = binary.AppendUvarint(ts.log, ts.open.count)
	ts.log = binary.AppendUvarint(ts.log, ts.open.sum)
	ts.log = binary.AppendUvarint(ts.log, uint64(ts.open.max))
	ts.last = ts.openK
	ts.open = windowAgg{}
}

func (ts *TimeSeries) stat(k int64, w windowAgg) WindowStat {
	return WindowStat{
		Start: event.Time(k) * ts.width,
		Count: w.count,
		Mean:  float64(w.sum) / float64(w.count),
		Max:   w.max,
	}
}

// Windows exports the populated windows in time order.
func (ts *TimeSeries) Windows() []WindowStat {
	keys := make([]int64, 0, len(ts.late))
	for k := range ts.late {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]WindowStat, 0, len(keys)+len(ts.log)/4+1)
	// emit adds window k, folding in any late observations for it and
	// first flushing late-only windows that precede it.
	emit := func(k int64, w windowAgg) {
		for len(keys) > 0 && keys[0] < k {
			out = append(out, ts.stat(keys[0], *ts.late[keys[0]]))
			keys = keys[1:]
		}
		if len(keys) > 0 && keys[0] == k {
			w.merge(ts.late[k])
			keys = keys[1:]
		}
		out = append(out, ts.stat(k, w))
	}
	k := int64(0)
	for buf := ts.log; len(buf) > 0; {
		var f [4]uint64
		for i := range f {
			v, n := binary.Uvarint(buf)
			f[i], buf = v, buf[n:]
		}
		k += int64(f[0])
		emit(k, windowAgg{count: f[1], sum: f[2], max: event.Time(f[3])})
	}
	if ts.open.count > 0 {
		emit(ts.openK, ts.open)
	}
	for _, k := range keys {
		out = append(out, ts.stat(k, *ts.late[k]))
	}
	return out
}

// Peak returns the window with the highest max observation, the
// earliest such window on ties (zero value when empty).
func (ts *TimeSeries) Peak() WindowStat {
	var best WindowStat
	for _, w := range ts.Windows() {
		if best.Count == 0 || w.Max > best.Max {
			best = w
		}
	}
	return best
}
