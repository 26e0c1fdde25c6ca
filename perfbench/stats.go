package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than as a single outlier.
const minBeyond = 10

// Pct is one percentile of a sample set together with the facts that
// make it readable: how many samples it came from and how many lie
// beyond it.
type Pct struct {
	Q      float64 // quantile in (0, 1]
	Value  float64
	N      int // samples
	Beyond int // samples ranked after the percentile's own rank
}

// OK reports whether at least minBeyond samples lie beyond the
// percentile.
func (p Pct) OK() bool { return p.Beyond >= minBeyond }

// Percentile returns the nearest-rank q-quantile of xs (xs is not
// modified). An empty set yields a zero Pct with N = 0.
func Percentile(xs []float64, q float64) Pct {
	p := Pct{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	p.Value = s[rank-1]
	p.Beyond = len(s) - rank
	return p
}

// MinSamples is the smallest sample count at which the q-quantile has
// minBeyond samples beyond it.
func MinSamples(q float64) int {
	return int(math.Ceil(minBeyond / (1 - q)))
}

// Median is the midpoint median of xs (the mean of the two middle
// values for an even count), 0 for an empty set.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Tally counts the units of work a run attempted and the ones that did
// not succeed, by cause. Every failure counts against error_ratio.
type Tally struct {
	Attempted int
	Errored   int // the call returned an error
	Refused   int // the service answered 429 or 503
	Mismatch  int // the output failed a correctness check
}

// Failed is the number of units that did not succeed.
func (t Tally) Failed() int { return t.Errored + t.Refused + t.Mismatch }

// ErrorRatio is failed ÷ attempted, 0 when nothing was attempted.
func (t Tally) ErrorRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}
