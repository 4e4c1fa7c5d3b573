// Package benchkit holds what the end-to-end benchmark needs besides the
// program under test: percentile math, closed- and open-loop load loops on
// an injectable clock, a span recorder with self-time attribution, a
// /metrics delta reader, seeded input generation and environment capture.
package benchkit

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by linear
// interpolation between closest ranks; 0 on an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 || n == 1 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1) // < n-1, so lo+1 is in range
	lo := int(math.Floor(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// PercentileOf is Percentile over a sorted copy of xs.
func PercentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, p)
}

// Median is the 50th percentile of xs, 0 when xs is empty.
func Median(xs []float64) float64 { return PercentileOf(xs, 50) }

// tailLadder is the percentiles HighestTail chooses from, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90}

// HighestTail returns the highest percentile of the ladder 99.99, 99.9, 99,
// 95, 90 that has at least ten of the n samples beyond it, or 50 when even
// p90 has fewer: a tail percentile resting on under ten samples is the
// value of a few outliers, not a property of the system.
func HighestTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 × 0.1 % is 9.999… in floats
			return p
		}
	}
	return 50
}

// Sample is one timed request: when it was due (offset from the start of
// the loop), how long it took from that moment, how late the generator
// itself sent it, and whether it succeeded.
type Sample struct {
	Due     time.Duration
	Latency time.Duration
	Lag     time.Duration
	Failed  bool
}

// Millis converts the latencies of the successful samples to sorted
// milliseconds.
func Millis(samples []Sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.Failed {
			out = append(out, float64(s.Latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// SliceMedian cuts the window into slices equal parts by each sample's due
// time, takes the p-th latency percentile (ms) of every slice that has
// samples, and returns the median of those: one scheduler stall lands in
// one slice and cannot move the result.
func SliceMedian(samples []Sample, window time.Duration, slices int, p float64) float64 {
	if slices < 1 || window <= 0 {
		return 0
	}
	parts := make([][]Sample, slices)
	for _, s := range samples {
		i := int(int64(s.Due) * int64(slices) / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= slices {
			i = slices - 1
		}
		parts[i] = append(parts[i], s)
	}
	var per []float64
	for _, part := range parts {
		if ms := Millis(part); len(ms) > 0 {
			per = append(per, Percentile(ms, p))
		}
	}
	if len(per) == 0 {
		return 0
	}
	return Median(per)
}

// Spread is the distance between the first and third quartile of xs as a
// share of their median — the run-to-run spread the comparer holds against
// a metric's bound. Fewer than two values have no spread (0).
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// Quartiles returns the three cut points of xs by the exclusive method
// (the one Python's statistics.quantiles(xs, n=4) defaults to), so the
// spreads computed here and by the driver agree.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	return cut(1), cut(2), cut(3)
}
