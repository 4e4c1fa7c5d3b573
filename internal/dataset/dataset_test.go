package dataset

import (
	"math"
	"testing"

	"vectordb/internal/vec"
)

func TestSIFTLikeShape(t *testing.T) {
	d := SIFTLike(100, 1)
	if d.N != 100 || d.Dim != 128 || len(d.Data) != 100*128 {
		t.Fatalf("shape: N=%d Dim=%d len=%d", d.N, d.Dim, len(d.Data))
	}
	for i, x := range d.Data {
		if x < 0 || x > 255 {
			t.Fatalf("value %v at %d out of SIFT range", x, i)
		}
	}
}

func TestDeepLikeNormalized(t *testing.T) {
	d := DeepLike(50, 2)
	if d.Dim != 96 {
		t.Fatalf("Dim = %d, want 96", d.Dim)
	}
	for i := 0; i < d.N; i++ {
		n := vec.Norm(d.Row(i))
		if math.Abs(float64(n)-1) > 1e-4 {
			t.Fatalf("row %d norm = %v, want 1", i, n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := SIFTLike(30, 7)
	b := SIFTLike(30, 7)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := SIFTLike(30, 8)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestQueriesHaveNearNeighbors(t *testing.T) {
	d := SIFTLike(200, 3)
	qs := Queries(d, 10, 4)
	gt := GroundTruth(d, qs, 1, vec.L2)
	for qi, res := range gt {
		if len(res) != 1 {
			t.Fatalf("query %d: no result", qi)
		}
		// A perturbed sample must be far closer to its source than the data
		// diameter; just require a finite small distance relative to dim.
		if res[0].Distance > 1e6 {
			t.Fatalf("query %d: nearest distance %v suspiciously large", qi, res[0].Distance)
		}
	}
}

func TestGroundTruthExactness(t *testing.T) {
	d := Uniform(50, 4, 5)
	qs := Queries(d, 5, 6)
	gt := GroundTruth(d, qs, 3, vec.L2)
	for qi := 0; qi < 5; qi++ {
		q := qs[qi*d.Dim : (qi+1)*d.Dim]
		// verify ordering and optimality by re-scan
		res := gt[qi]
		if len(res) != 3 {
			t.Fatalf("query %d: %d results", qi, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Distance < res[i-1].Distance {
				t.Fatalf("query %d: unsorted results", qi)
			}
		}
		worst := res[len(res)-1].Distance
		better := 0
		for i := 0; i < d.N; i++ {
			if vec.L2Squared(q, d.Row(i)) < worst {
				better++
			}
		}
		if better > 3 {
			t.Fatalf("query %d: %d vectors beat the reported worst", qi, better)
		}
	}
}

func TestRecipeLikeCorrelation(t *testing.T) {
	m := RecipeLikeNoise(300, []int{16, 24}, 0.4, 9)
	if m.N != 300 || len(m.Fields) != 2 {
		t.Fatalf("shape wrong")
	}
	if len(m.Field(0, 0)) != 16 || len(m.Field(1, 0)) != 24 {
		t.Fatalf("field dims wrong")
	}
	// Fields must be correlated: entities close in field 0 should be closer
	// than random in field 1 on average.
	var corrSum, randSum float64
	pairs := 0
	for i := 0; i < 100; i++ {
		// find i's nearest in field 0 among a sample
		best, bestD := -1, float32(math.MaxFloat32)
		for j := 0; j < 300; j++ {
			if j == i {
				continue
			}
			d := vec.L2Squared(m.Field(0, i), m.Field(0, j))
			if d < bestD {
				best, bestD = j, d
			}
		}
		corrSum += float64(vec.L2Squared(m.Field(1, i), m.Field(1, best)))
		randSum += float64(vec.L2Squared(m.Field(1, i), m.Field(1, (i+137)%300)))
		pairs++
	}
	if corrSum >= randSum {
		t.Fatalf("fields uncorrelated: nearest-by-field0 distance %v >= random %v", corrSum/float64(pairs), randSum/float64(pairs))
	}
}

func TestAttributesRange(t *testing.T) {
	attrs := Attributes(1000, 10000, 11)
	if len(attrs) != 1000 {
		t.Fatalf("len = %d", len(attrs))
	}
	var lo, hi int64 = 10000, -1
	for _, a := range attrs {
		if a < 0 || a >= 10000 {
			t.Fatalf("attribute %d out of range", a)
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo < 5000 {
		t.Fatalf("attributes not spread: lo=%d hi=%d", lo, hi)
	}
}
