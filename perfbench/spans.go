package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public
// function. Times are offsets from the recorder's start.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Run    string        `json:"run"`    // run, device batch or job the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how the untraced run calls the same code.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name, run string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Time runs f inside a span and returns f's error.
func (r *Recorder) Time(name, run string, parent int, f func() error) error {
	id := r.Begin(name, run, parent)
	defer r.End(id)
	return f()
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval covered by the union of its children. Children may
// overlap each other (concurrent work); the union counts each instant
// once. Unclosed spans have no entry.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= k.Start && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// SelfByName collects the self times of the spans of each name.
func SelfByName(spans []Span) map[string]NameTotal {
	self := SelfTimes(spans)
	out := map[string]NameTotal{}
	for _, s := range spans {
		d, ok := self[s.ID]
		if !ok {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.Samples = append(t.Samples, d.Seconds())
		out[s.Name] = t
	}
	return out
}

// NameTotal holds the self time of every closed span with one name.
type NameTotal struct {
	Count   int
	Samples []float64 // per-span self time, seconds
}
