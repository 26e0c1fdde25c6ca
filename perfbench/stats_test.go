package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestPercentileCarriesCountAndBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		value      float64
		beyond     int
		meetsRule  bool
		minSamples int
	}{
		{1000, 0.99, 990, 10, true, 1000},
		{999, 0.99, 990, 9, false, 1000},
		{346, 0.99, 343, 3, false, 1000},
		{20, 0.50, 10, 10, true, 20},
		{19, 0.50, 10, 9, false, 20},
		{1, 0.50, 1, 0, false, 20},
	} {
		p := Percentile(seq(tc.n), tc.q)
		if p.N != tc.n || p.Value != tc.value || p.Beyond != tc.beyond || p.OK() != tc.meetsRule {
			t.Errorf("Percentile(n=%d, q=%g) = %+v (OK %v), want value %g, beyond %d, OK %v",
				tc.n, tc.q, p, p.OK(), tc.value, tc.beyond, tc.meetsRule)
		}
		if got := MinSamples(tc.q); got != tc.minSamples {
			t.Errorf("MinSamples(%g) = %d, want %d", tc.q, got, tc.minSamples)
		}
	}
	if p := Percentile(nil, 0.5); p.N != 0 || p.Value != 0 || p.OK() {
		t.Errorf("Percentile(nil) = %+v, want the zero Pct", p)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestErrorRatioCountsRefusalsAndFailedChecks(t *testing.T) {
	if got := (Tally{}).ErrorRatio(); got != 0 {
		t.Errorf("empty tally ratio = %g, want 0", got)
	}
	tl := Tally{Attempted: 200, Errored: 1, Refused: 3, Mismatch: 6}
	if tl.Failed() != 10 {
		t.Errorf("Failed() = %d, want 10", tl.Failed())
	}
	if got := tl.ErrorRatio(); got != 0.05 {
		t.Errorf("ErrorRatio() = %g, want 0.05", got)
	}
	if got := (Tally{Attempted: 4, Refused: 4}).ErrorRatio(); got != 1 {
		t.Errorf("all refused: ErrorRatio() = %g, want 1", got)
	}
}

func TestInputSeedIsPositiveAndDistinct(t *testing.T) {
	seen := map[int64]int64{}
	for s := int64(-5); s < 1000; s++ {
		v := inputSeed(s)
		if v <= 0 || v > 1<<31 {
			t.Fatalf("inputSeed(%d) = %d, want in (0, 2^31]", s, v)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("inputSeed(%d) = inputSeed(%d) = %d", s, prev, v)
		}
		seen[v] = s
	}
}
