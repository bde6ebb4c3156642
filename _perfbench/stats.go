package main

import (
	"math"
	"slices"
	"strconv"
)

// tailQuantiles is the ladder the percentile rule climbs: the reported tail
// is the highest of these with at least minBeyond samples above it.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// summary is a sample distribution reported by the percentile rule: the
// median, the highest percentile with at least ten samples beyond it, and
// the sample count.
type summary struct {
	N     int
	P50   float64
	TailQ float64 // 0 when no percentile has ten samples beyond it
	Tail  float64
	// P99 is the 99th percentile, or the rule's tail when fewer than ten
	// samples lie beyond the 99th; P99Q names the percentile it holds.
	P99  float64
	P99Q float64
}

// summarize applies the percentile rule to xs (which it sorts in place).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	slices.Sort(xs)
	s.P50 = quantile(xs, 0.5)
	s.P99Q, s.P99 = 0.5, s.P50
	if q, ok := tailQuantile(len(xs)); ok {
		s.TailQ, s.Tail = q, quantile(xs, q)
		s.P99Q = min(q, 0.99)
		s.P99 = quantile(xs, s.P99Q)
	}
	return s
}

// tailQuantile returns the highest ladder percentile that leaves at least
// minBeyond of n samples above it.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if math.Round(float64(n)*(1-q)*1e6)/1e6 >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quantile is the nearest-rank percentile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(math.Round(q*float64(len(sorted))*1e6)/1e6)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 { return summarize(xs).P50 }

// sortedQuantile is the nearest-rank q-quantile of xs (sorted in place).
func sortedQuantile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	return quantile(xs, q)
}

// pct renders a quantile as a percentile label ("p99", "p99.9").
func pct(q float64) string { return "p" + strconv.FormatFloat(q*100, 'f', -1, 64) }
