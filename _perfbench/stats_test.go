package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so summarize must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n         int
		tailQ     float64
		tail, p99 float64
		p99Q      float64
	}{
		{n: 19, tailQ: 0, p99: 10, p99Q: 0.5},             // no percentile has ten beyond it
		{n: 20, tailQ: 0.5, tail: 10, p99: 10, p99Q: 0.5}, // exactly ten beyond the median
		{n: 100, tailQ: 0.9, tail: 90, p99: 90, p99Q: 0.9},
		{n: 999, tailQ: 0.9, tail: 900, p99: 900, p99Q: 0.9},
		{n: 1000, tailQ: 0.99, tail: 990, p99: 990, p99Q: 0.99},
		{n: 10000, tailQ: 0.999, tail: 9990, p99: 9900, p99Q: 0.99},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n {
			t.Errorf("n=%d: N=%d", c.n, s.N)
		}
		if want := float64((c.n + 1) / 2); s.P50 != want {
			t.Errorf("n=%d: P50=%v want %v", c.n, s.P50, want)
		}
		if s.TailQ != c.tailQ || s.Tail != c.tail {
			t.Errorf("n=%d: tail %s=%v want %s=%v", c.n, pct(s.TailQ), s.Tail, pct(c.tailQ), c.tail)
		}
		if s.P99 != c.p99 || s.P99Q != c.p99Q {
			t.Errorf("n=%d: p99 slot %s=%v want %s=%v", c.n, pct(s.P99Q), s.P99, pct(c.p99Q), c.p99)
		}
	}
	if s := summarize(nil); s.N != 0 || s.TailQ != 0 {
		t.Errorf("empty: %+v", s)
	}
}
