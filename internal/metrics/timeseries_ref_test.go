package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cagc/internal/event"
)

// denseTimeSeries is the previous TimeSeries layout — one dense slot per
// window from zero to the last observation, a running float64 sum per
// window, and a map for negative windows. It is kept as the reference
// the compact log must reproduce exactly.
type denseTimeSeries struct {
	width event.Time
	pos   []denseAgg
	neg   map[int64]*denseAgg
}

type denseAgg struct {
	count uint64
	sum   float64
	max   event.Time
}

func (w *denseAgg) record(v event.Time) {
	w.count++
	w.sum += float64(v)
	if v > w.max {
		w.max = v
	}
}

func (ts *denseTimeSeries) Record(at event.Time, v event.Time) {
	if v < 0 {
		v = 0
	}
	k := int64(at / ts.width)
	if k < 0 {
		if ts.neg == nil {
			ts.neg = make(map[int64]*denseAgg)
		}
		w := ts.neg[k]
		if w == nil {
			w = &denseAgg{}
			ts.neg[k] = w
		}
		w.record(v)
		return
	}
	for int64(len(ts.pos)) <= k {
		ts.pos = append(ts.pos, denseAgg{})
	}
	ts.pos[k].record(v)
}

func (ts *denseTimeSeries) stat(k int64, w *denseAgg) WindowStat {
	return WindowStat{
		Start: event.Time(k) * ts.width,
		Count: w.count,
		Mean:  w.sum / float64(w.count),
		Max:   w.max,
	}
}

func (ts *denseTimeSeries) Windows() []WindowStat {
	keys := make([]int64, 0, len(ts.neg))
	for k := range ts.neg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]WindowStat, 0, len(keys)+len(ts.pos))
	for _, k := range keys {
		out = append(out, ts.stat(k, ts.neg[k]))
	}
	for k := range ts.pos {
		if w := &ts.pos[k]; w.count > 0 {
			out = append(out, ts.stat(int64(k), w))
		}
	}
	return out
}

func (ts *denseTimeSeries) Peak() WindowStat {
	var best WindowStat
	for _, w := range ts.Windows() {
		if best.Count == 0 || w.Max > best.Max {
			best = w
		}
	}
	return best
}

// sameStat compares two windows field by field, the mean by its bits.
func sameStat(a, b WindowStat) bool {
	return a.Start == b.Start && a.Count == b.Count && a.Max == b.Max &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean)
}

// TestTimeSeriesDifferentialDense replays the same observation
// streams into the compact series and the dense reference and demands
// identical windows and peaks, mean bits included: in-order streams
// (the simulator's case), streams with out-of-order arrivals behind the
// open window, negative times, and mixtures of all three.
func TestTimeSeriesDifferentialDense(t *testing.T) {
	const width = 100
	// Each generator returns the next observation time; cur is the
	// in-order cursor, which only moves forward.
	streams := map[string]func(r *rand.Rand, i int, cur *event.Time) event.Time{
		"in-order": func(r *rand.Rand, _ int, cur *event.Time) event.Time {
			*cur += event.Time(r.Intn(3 * width))
			return *cur
		},
		"out-of-order": func(r *rand.Rand, _ int, cur *event.Time) event.Time {
			if r.Intn(4) == 0 {
				return event.Time(r.Int63n(int64(*cur) + 1))
			}
			*cur += event.Time(r.Intn(2 * width))
			return *cur
		},
		"negative": func(r *rand.Rand, _ int, _ *event.Time) event.Time {
			return event.Time(r.Intn(40*width) - 30*width)
		},
		"mixed": func(r *rand.Rand, i int, cur *event.Time) event.Time {
			switch r.Intn(6) {
			case 0:
				return -event.Time(r.Intn(10 * width))
			case 1:
				return event.Time(r.Int63n(int64(*cur) + 1))
			}
			if i%50 == 0 {
				*cur += event.Time(r.Intn(1000 * width)) // long idle gap
			}
			*cur += event.Time(r.Intn(width))
			return *cur
		},
	}
	for name, next := range streams {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			got := NewTimeSeries(width)
			ref := &denseTimeSeries{width: width}
			cur := event.Time(0)
			for i := 0; i < 2000; i++ {
				at := next(r, i, &cur)
				// Values span small latencies to huge ones, negatives
				// (clamped to zero) included.
				v := event.Time(r.Int63n(1<<40)) >> uint(r.Intn(40))
				if r.Intn(50) == 0 {
					v = -v
				}
				got.Record(at, v)
				ref.Record(at, v)
			}
			gw, rw := got.Windows(), ref.Windows()
			if len(gw) != len(rw) {
				t.Fatalf("%s seed %d: %d windows, reference %d", name, seed, len(gw), len(rw))
			}
			for i := range gw {
				if !sameStat(gw[i], rw[i]) {
					t.Fatalf("%s seed %d: window %d = %+v, reference %+v", name, seed, i, gw[i], rw[i])
				}
			}
			if gp, rp := got.Peak(), ref.Peak(); !sameStat(gp, rp) {
				t.Fatalf("%s seed %d: peak %+v, reference %+v", name, seed, gp, rp)
			}
		}
	}
}
