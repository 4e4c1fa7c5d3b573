package benchkit

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileKnownVectors(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}, {25, 3.25},
	} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("Percentile of one value = %g, want 7", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median(9,1,5) = %g, want 5 (input must not need sorting)", got)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // p90 would rest on 5 samples
		{100, 90},     // exactly 10 beyond p90
		{199, 90},     // 9.95 beyond p95
		{200, 95},     // exactly 10 beyond p95
		{999, 95},     // 9.99 beyond p99
		{1000, 99},    // exactly 10 beyond p99
		{9999, 99},    // 9.999 beyond p99.9
		{10000, 99.9}, // exactly 10 beyond p99.9
		{100000, 99.99},
	} {
		if got := HighestTail(c.n); got != c.want {
			t.Errorf("HighestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSliceMedianIgnoresOneStalledSlice(t *testing.T) {
	// Four 1 s slices, 100 requests each at 1 ms; one slice holds a stall
	// that makes a fifth of its requests take 500 ms.
	var samples []Sample
	for slice := 0; slice < 4; slice++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if slice == 2 && i >= 80 {
				lat = 500 * time.Millisecond
			}
			due := time.Duration(slice)*time.Second + time.Duration(i)*10*time.Millisecond
			samples = append(samples, Sample{Due: due, Latency: lat})
		}
	}
	if got := SliceMedian(samples, 4*time.Second, 4, 99); !near(got, 1) {
		t.Errorf("SliceMedian p99 = %g ms, want 1 (the stalled slice must not move it)", got)
	}
	// The whole-window p99 does see the stall; that is the difference.
	if whole := Percentile(Millis(samples), 99); whole < 100 {
		t.Errorf("whole-window p99 = %g ms, expected the stall to show", whole)
	}
	// A failed request has no latency figure.
	samples = append(samples, Sample{Due: 0, Latency: time.Hour, Failed: true})
	if got := SliceMedian(samples, 4*time.Second, 4, 99); !near(got, 1) {
		t.Errorf("SliceMedian with a failed sample = %g ms, want 1", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("Quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := Spread([]float64{7}); got != 0 {
		t.Errorf("Spread of one value = %g, want 0", got)
	}
}
