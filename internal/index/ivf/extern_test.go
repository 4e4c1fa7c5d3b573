package ivf

import (
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// fakeExt is a PayloadExt over a resident index's build-order payload that
// behaves like an out-of-core provider: every Open hands out a fresh copy
// of the payload, and its release poisons that copy, so a scan that reads a
// bucket view after the sweep's release sees huge values instead of rows
// and its results stop matching. It counts the payloads opened and those
// left open, and fails on a second release of one.
type fakeExt struct {
	t      *testing.T
	floats []float32
	codes  []byte
	open   int
	opens  int
}

// pin counts one open payload and returns its release, which runs poison
// once.
func (f *fakeExt) pin(poison func()) func() {
	f.open++
	f.opens++
	released := false
	return func() {
		if released {
			f.t.Fatal("payload released twice")
		}
		released = true
		poison()
		f.open--
	}
}

func (f *fakeExt) OpenFloats() ([]float32, func(), error) {
	c := append([]float32(nil), f.floats...)
	return c, f.pin(func() { poisonFloats(c) }), nil
}

func (f *fakeExt) OpenBytes() ([]byte, func(), error) {
	c := append([]byte(nil), f.codes...)
	return c, f.pin(func() { poisonBytes(c) }), nil
}

func poisonFloats(b []float32) {
	for i := range b {
		b[i] = 1e30
	}
}

// poisonBytes flips every code byte, which moves a decoded row to the far
// end of its quantization range in every dimension.
func poisonBytes(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

// externalized returns x's externalized copy served by a fakeExt.
func externalized(t *testing.T, x *IVF) (*IVF, *fakeExt) {
	t.Helper()
	floats, codes, ok := x.ResidentPayload()
	if !ok {
		t.Fatalf("%s: no resident payload", x.Name())
	}
	ext := &fakeExt{t: t, floats: floats, codes: codes}
	y, err := x.Externalize(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Externalized() || x.Externalized() {
		t.Fatal("Externalize must return an externalized copy and leave the receiver resident")
	}
	return y, ext
}

func sameResults(t *testing.T, label string, want, got []topk.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, resident has %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank %d is %v, resident has %v", label, i, got[i], want[i])
		}
	}
}

// prefillBetween returns candidates that interleave rs: one between each
// pair of neighbours, with IDs no index row has. A heap holding them is
// full after one more push, so its bound prunes a scan at once.
func prefillBetween(rs []topk.Result) []topk.Result {
	var out []topk.Result
	for i := 0; i+1 < len(rs); i++ {
		d := rs[i].Distance + (rs[i+1].Distance-rs[i].Distance)/2
		if d != rs[i].Distance && d != rs[i+1].Distance {
			out = append(out, topk.Result{ID: -int64(i) - 1, Distance: d})
		}
	}
	return out
}

// TestExternalizedMatchesResident: an externalized IVF_FLAT or IVF_SQ8
// index answers bit-identically to the resident index it was made from,
// through every bucket-scan entry point and through SearchInto a
// pre-filled heap, across metrics, filter selectivities (none, 2 %, 50 %)
// and probe widths — including buckets longer than a scan block, sliced
// from the pinned payload at the bucket's first row.
func TestExternalizedMatchesResident(t *testing.T) {
	d := dataset.DeepLike(4000, 71)
	const nq, nlist = 4, 16
	qs := dataset.Queries(d, nq, 72)
	rng := rand.New(rand.NewSource(73))
	filters := map[string]*bitset.Bitset{"none": nil}
	for _, frac := range []float64{0.02, 0.5} {
		b := bitset.New(d.N)
		for i := 0; i < d.N; i++ {
			if rng.Float64() < frac {
				b.Set(i)
			}
		}
		filters[fmt.Sprintf("bits%.0f%%", frac*100)] = b
	}
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		for _, metric := range []vec.Metric{vec.L2, vec.IP} {
			bld := &Builder{Fine: fine, Metric: metric, Dim: d.Dim, Nlist: nlist, MaxIter: 4}
			idx, err := bld.Build(d.Data, nil)
			if err != nil {
				t.Fatal(err)
			}
			x := idx.(*IVF)
			y, ext := externalized(t, x)
			long := false
			for b := 0; b < nlist; b++ {
				long = long || x.BucketLen(b) > index.ScanBlockRows
			}
			if !long {
				t.Fatalf("%s: no bucket spans more than one scan block", x.Name())
			}
			for name, bits := range filters {
				for _, nprobe := range []int{1, 8, nlist} {
					label := fmt.Sprintf("%s/%v/%s/nprobe=%d", x.Name(), metric, name, nprobe)
					p := index.SearchParams{K: 20, Nprobe: nprobe, Bits: bits}
					for qi := 0; qi < nq; qi++ {
						q := qs[qi*d.Dim : (qi+1)*d.Dim]
						want := x.Search(q, p)
						sameResults(t, label+"/Search", want, y.Search(q, p))
						taken := p
						taken.Probes = x.ProbeOrder(q, nprobe)
						sameResults(t, label+"/Probes", want, y.Search(q, taken))

						// SearchInto a heap another segment already
						// filled: the prefill's bound prunes the probe,
						// and the heap ends as a merge of the two.
						prefill := prefillBetween(want)
						merged := topk.Merge(p.K, prefill, want)
						for _, z := range []*IVF{x, y} {
							h := topk.New(p.K)
							for _, r := range prefill {
								h.Push(r.ID, r.Distance)
							}
							z.SearchInto(h, q, p)
							sameResults(t, label+"/SearchInto", merged, h.Results())
						}

						// One heap across the probed buckets, so the
						// worst bound carries from bucket to bucket.
						if fine == FineSQ8 {
							sel := index.Selection{Bits: p.Bits}
							sqx, sqy := x.SQ8ScanQuery(q), y.SQ8ScanQuery(q)
							hx, hy := topk.New(p.K), topk.New(p.K)
							for _, b := range x.ProbeOrder(q, nprobe) {
								x.ScanBucketSQ8(sqx, b, sel, hx)
								y.ScanBucketSQ8(sqy, b, sel, hy)
							}
							sameResults(t, label+"/ScanBucketSQ8", hx.Results(), hy.Results())
						}
					}
					if ext.open != 0 {
						t.Fatalf("%s: %d payloads left open", label, ext.open)
					}
				}
			}
		}
	}
}

// smallIVF builds a small index of the given fine kind over a DeepLike
// dataset, with buckets long enough to span several scan blocks.
func smallIVF(t *testing.T, fine Fine, metric vec.Metric) (*IVF, *dataset.Dataset) {
	t.Helper()
	d := dataset.DeepLike(2000, 81)
	bld := &Builder{Fine: fine, Metric: metric, Dim: d.Dim, Nlist: 4, MaxIter: 4}
	idx, err := bld.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*IVF), d
}

// TestExternalizedBucketSlicesPayload: a sweep's bucket b is the run of
// the pinned payload between starts[b] and starts[b+1] — a subslice of
// it, not a copy — and holds exactly the resident bucket's rows. The
// buckets tile the payload in order, and the sweep pins it once.
func TestExternalizedBucketSlicesPayload(t *testing.T) {
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		x, _ := smallIVF(t, fine, vec.L2)
		t.Run(x.Name(), func(t *testing.T) {
			y, ext := externalized(t, x)
			w := x.rowWidth()
			switch fine {
			case FineFlat:
				payload, release, err := y.payload.OpenFloats()
				if err != nil {
					t.Fatal(err)
				}
				want, _, _ := x.ResidentPayload()
				checkBucketRuns(t, y, payload, want, w)
				release()
			case FineSQ8:
				payload, release, err := y.payload.OpenBytes()
				if err != nil {
					t.Fatal(err)
				}
				_, want, _ := x.ResidentPayload()
				checkBucketRuns(t, y, payload, want, w)
				release()
			}
			if ext.open != 0 || ext.opens != 1 {
				t.Fatalf("%d payloads opened, %d left open; want 1 and 0", ext.opens, ext.open)
			}
		})
	}
}

func checkBucketRuns[T float32 | byte](t *testing.T, y *IVF, payload, resident []T, w int) {
	t.Helper()
	covered := 0
	for b := 0; b < y.nlist; b++ {
		got, want := bucket(payload, y.starts, b, w), bucket(resident, y.starts, b, w)
		if len(got) != y.BucketLen(b)*w || len(got) != len(want) {
			t.Fatalf("bucket %d: %d elements, resident has %d for %d rows", b, len(got), len(want), y.BucketLen(b))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bucket %d element %d differs from the resident bucket", b, i)
			}
		}
		if s := int(y.starts[b]) * w; len(got) > 0 && &got[0] != &payload[s] {
			t.Fatalf("bucket %d is not the payload's run at row %d", b, y.starts[b])
		}
		covered += len(got)
	}
	if covered != len(payload) {
		t.Fatalf("buckets cover %d of %d payload elements", covered, len(payload))
	}
}

// TestExternalizedSweepOpensOnce: a search pins the payload once for its
// whole probe sweep, however many buckets it probes, and releases it.
func TestExternalizedSweepOpensOnce(t *testing.T) {
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		x, d := smallIVF(t, fine, vec.L2)
		t.Run(x.Name(), func(t *testing.T) {
			y, ext := externalized(t, x)
			q := dataset.Queries(d, 1, 82)
			p := index.SearchParams{K: 10, Nprobe: x.nlist}
			y.Search(q, p)
			if ext.opens != 1 {
				t.Fatalf("a %d-bucket search opened the payload %d times, want once", x.nlist, ext.opens)
			}
			if ext.open != 0 {
				t.Fatalf("%d payloads left open", ext.open)
			}
		})
	}
}

// failingExt is a PayloadExt whose payload cannot be pinned.
type failingExt struct{}

var errNoPayload = fmt.Errorf("payload unavailable")

func (failingExt) OpenFloats() ([]float32, func(), error) { return nil, nil, errNoPayload }
func (failingExt) OpenBytes() ([]byte, func(), error)     { return nil, nil, errNoPayload }

// TestExternalizedOpenFailureScansNothing: when the payload cannot be
// pinned, a probe scans no bucket of the index — it neither panics on the
// missing slice nor disturbs what the heap already holds.
func TestExternalizedOpenFailureScansNothing(t *testing.T) {
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		x, d := smallIVF(t, fine, vec.L2)
		t.Run(x.Name(), func(t *testing.T) {
			y, err := x.Externalize(failingExt{})
			if err != nil {
				t.Fatal(err)
			}
			q := dataset.Queries(d, 1, 83)
			p := index.SearchParams{K: 10, Nprobe: x.nlist}
			if got := y.Search(q, p); len(got) != 0 {
				t.Fatalf("search without a payload returned %d results", len(got))
			}
			prefill := []topk.Result{{ID: -1, Distance: 1}, {ID: -2, Distance: 2}}
			h := topk.New(p.K)
			for _, r := range prefill {
				h.Push(r.ID, r.Distance)
			}
			y.SearchInto(h, q, p)
			sameResults(t, "prefilled heap", prefill, h.Results())
		})
	}
}

// TestExternalizeRejects: Externalize refuses a nil provider, an index
// already externalized and a fine kind whose payload cannot move out of
// core, and leaves the receiver as it was.
func TestExternalizeRejects(t *testing.T) {
	flat, _ := smallIVF(t, FineFlat, vec.L2)
	pq, _ := smallIVF(t, FinePQ, vec.L2)
	ext, _ := externalized(t, flat)
	for _, tc := range []struct {
		name string
		x    *IVF
		ext  PayloadExt
	}{
		{"nil_provider", flat, nil},
		{"already_externalized", ext, failingExt{}},
		{"pq_payload", pq, failingExt{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			was := tc.x.Externalized()
			if y, err := tc.x.Externalize(tc.ext); err == nil || y != nil {
				t.Fatalf("Externalize = (%v, %v), want an error", y, err)
			}
			if tc.x.Externalized() != was {
				t.Fatal("a refused Externalize changed the receiver")
			}
		})
	}
}
