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
// behaves like an out-of-core provider: it serves one bucket's row range at
// a time, every Block is a copy into one of two alternating buffers, and
// the buffer handed out before is poisoned, so a scan that reads a view
// after the next Block (or after Bucket or Release) sees huge values
// instead of rows and its results stop matching. It also checks the
// block-access contract within the bucket and counts sources left open.
type fakeExt struct {
	t      *testing.T
	floats []float32
	codes  []byte
	dim    int // floats per row (FLAT)
	rb     int // bytes per row (SQ8)
	open   int
}

func (f *fakeExt) OpenFloats() (FloatRows, error) {
	f.open++
	return &fakeFloats{f: f, n: len(f.floats) / f.dim}, nil
}

func (f *fakeExt) OpenBytes() (ByteRows, error) {
	f.open++
	return &fakeBytes{f: f, n: len(f.codes) / f.rb}, nil
}

func (f *fakeExt) checkBucket(start, n, rows int, released bool) {
	if released {
		f.t.Fatal("Bucket after Release")
	}
	if start < 0 || n < 0 || start+n > rows {
		f.t.Fatalf("Bucket(%d, %d) outside the %d-row payload", start, n, rows)
	}
}

func (f *fakeExt) checkSpan(i0, i1, rows int, released bool) {
	if released {
		f.t.Fatal("Block after Release")
	}
	if i0%index.ScanBlockRows != 0 || i1 <= i0 || i1-i0 > index.ScanBlockRows || i1 > rows {
		f.t.Fatalf("contract violation: Block(%d, %d) rows=%d", i0, i1, rows)
	}
}

type fakeFloats struct {
	f        *fakeExt
	start, n int // the current bucket's payload rows
	bufs     [2][]float32
	cur      int
	released bool
}

func (s *fakeFloats) Rows() int { return s.n }
func (s *fakeFloats) Dim() int  { return s.f.dim }

func (s *fakeFloats) Bucket(start, n int) {
	s.f.checkBucket(start, n, len(s.f.floats)/s.f.dim, s.released)
	poisonFloats(s.bufs[0])
	poisonFloats(s.bufs[1])
	s.start, s.n = start, n
}

func (s *fakeFloats) Block(i0, i1 int) []float32 {
	s.f.checkSpan(i0, i1, s.n, s.released)
	poisonFloats(s.bufs[s.cur])
	s.cur ^= 1
	if s.bufs[s.cur] == nil {
		s.bufs[s.cur] = make([]float32, index.ScanBlockRows*s.f.dim)
	}
	n := copy(s.bufs[s.cur], s.f.floats[(s.start+i0)*s.f.dim:(s.start+i1)*s.f.dim])
	return s.bufs[s.cur][:n]
}

func (s *fakeFloats) Release() {
	if s.released {
		s.f.t.Fatal("double Release")
	}
	s.released = true
	poisonFloats(s.bufs[0])
	poisonFloats(s.bufs[1])
	s.f.open--
}

type fakeBytes struct {
	f        *fakeExt
	start, n int // the current bucket's payload rows
	bufs     [2][]byte
	cur      int
	released bool
}

func (s *fakeBytes) Rows() int     { return s.n }
func (s *fakeBytes) RowBytes() int { return s.f.rb }

func (s *fakeBytes) Bucket(start, n int) {
	s.f.checkBucket(start, n, len(s.f.codes)/s.f.rb, s.released)
	poisonBytes(s.bufs[0])
	poisonBytes(s.bufs[1])
	s.start, s.n = start, n
}

func (s *fakeBytes) Block(i0, i1 int) []byte {
	s.f.checkSpan(i0, i1, s.n, s.released)
	poisonBytes(s.bufs[s.cur])
	s.cur ^= 1
	if s.bufs[s.cur] == nil {
		s.bufs[s.cur] = make([]byte, index.ScanBlockRows*s.f.rb)
	}
	n := copy(s.bufs[s.cur], s.f.codes[(s.start+i0)*s.f.rb:(s.start+i1)*s.f.rb])
	return s.bufs[s.cur][:n]
}

func (s *fakeBytes) Release() {
	if s.released {
		s.f.t.Fatal("double Release")
	}
	s.released = true
	poisonBytes(s.bufs[0])
	poisonBytes(s.bufs[1])
	s.f.open--
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
	ext := &fakeExt{t: t, floats: floats, codes: codes, dim: x.dim}
	if x.fine == FineSQ8 {
		ext.rb = x.sq8.CodeSize()
	}
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
// and probe widths — including buckets
// longer than a scan block, served as several blocks from the bucket's
// first row.
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
						sel := x.selection(p)
						hx, hy := topk.New(p.K), topk.New(p.K)
						for _, b := range x.ProbeOrder(q, nprobe) {
							x.ScanBucket(q, b, sel, hx)
							y.ScanBucket(q, b, sel, hy)
						}
						sameResults(t, label+"/ScanBucket", hx.Results(), hy.Results())

						if fine == FineSQ8 {
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
						t.Fatalf("%s: %d payload sources left open", label, ext.open)
					}
				}
			}
		}
	}
}
