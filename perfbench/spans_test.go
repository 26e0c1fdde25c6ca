package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),  // 20
		span(3, 1, 20, 50),  // overlaps 2: union with 2 is [10,50) = 40
		span(4, 1, 60, 70),  // 10
		span(5, 1, 90, 120), // clipped to the parent: 10
		span(6, 2, 10, 15),  // grandchild: counts against 2 only
		span(7, 0, 200, 210),
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 15, 3: 30, 4: 10, 5: 30, 6: 5, 7: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeSkipsOpenSpans(t *testing.T) {
	self := SelfTimes([]Span{span(1, 0, 0, 10), span(2, 1, 5, -1)})
	if _, ok := self[2]; ok {
		t.Error("an unclosed span got a self time")
	}
	if self[1] != 10 {
		t.Errorf("self[1] = %v, want 10 (an open child covers nothing)", self[1])
	}
}

func TestRecorderNestsAndSumsByName(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin("root", "r1", 0)
	for i := 0; i < 3; i++ {
		if err := rec.Time("child", "r1", root, func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 4 || spans[1].Parent != root || spans[0].Run != "r1" {
		t.Fatalf("spans = %+v", spans)
	}
	by := SelfByName(spans)
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	if by["child"].Count != 3 || len(by["child"].Samples) != 3 || sum(by["child"].Samples) < 0.003 {
		t.Errorf("child totals = %+v", by["child"])
	}
	whole := (spans[0].End - spans[0].Start).Seconds()
	if got := sum(by["root"].Samples) + sum(by["child"].Samples); math.Abs(got-whole) > 1e-9 {
		t.Errorf("root self + child self = %v, want the root's duration %v", got, whole)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	id := rec.Begin("x", "r", 0)
	rec.End(id)
	called := false
	if err := rec.Time("y", "r", id, func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("Time on a nil recorder: err %v, called %v", err, called)
	}
	if rec.Spans() != nil {
		t.Error("a nil recorder returned spans")
	}
}
