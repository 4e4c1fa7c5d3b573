package index

import (
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// chunkSource serves data one aligned block-copy at a time with no
// Contiguous fast path — the test double for an out-of-core source. It
// also verifies the driver's access contract (aligned i0, block-bounded
// spans, no use after Release).
type chunkSource struct {
	t        *testing.T
	data     []float32
	dim      int
	buf      []float32
	released bool
	fetches  int
}

func (c *chunkSource) Rows() int { return len(c.data) / c.dim }
func (c *chunkSource) Dim() int  { return c.dim }

func (c *chunkSource) Block(i0, i1 int) []float32 {
	if c.released {
		c.t.Fatal("Block after Release")
	}
	if i0%ScanBlockRows != 0 || i1-i0 > ScanBlockRows || i1 <= i0 || i1 > c.Rows() {
		c.t.Fatalf("contract violation: Block(%d, %d) rows=%d", i0, i1, c.Rows())
	}
	c.fetches++
	if c.buf == nil {
		c.buf = make([]float32, ScanBlockRows*c.dim)
	}
	// Poison then fill: stale reads of a previous block's tail must fail.
	for i := range c.buf {
		c.buf[i] = float32(1e30)
	}
	n := copy(c.buf, c.data[i0*c.dim:i1*c.dim])
	return c.buf[:n]
}

func (c *chunkSource) Release() { c.released = true }

func randData(rng *rand.Rand, n, dim int) []float32 {
	d := make([]float32, n*dim)
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	return d
}

func drain(h *topk.Heap) []topk.Result { return h.Results() }

func exactResults(t *testing.T, want, got []topk.Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Distance != got[i].Distance {
			t.Fatalf("%s: result %d differs: got (%d, %g) want (%d, %g)",
				label, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

// TestScanBlockedSourceConformance: the out-of-core driver must return
// bit-identical results to ScanBlocked across metrics, selections and
// filter modes.
func TestScanBlockedSourceConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 24
	for _, n := range []int{1, 100, 256, 700, 2000} {
		data := randData(rng, n, dim)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(10_000 + i*3)
		}
		query := randData(rng, 1, dim)
		for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
			for _, selCase := range []string{"none", "dense", "sparse", "mid", "half", "pos", "possorted"} {
				sel := Selection{}
				switch selCase {
				case "none":
				case "dense", "sparse", "mid", "half":
					frac := map[string]float64{"dense": 0.8, "sparse": 0.02, "mid": 0.15, "half": 0.5}[selCase]
					b := bitset.New(n)
					for i := 0; i < n; i++ {
						if rng.Float64() < frac {
							b.Set(i)
						}
					}
					sel.Bits = b
				case "pos", "possorted":
					// A position mapping over a larger position space, as
					// IVF bucket scans pass; sorted variant sets PosSorted.
					pos := make([]int32, n)
					step := 3
					for i := range pos {
						pos[i] = int32(i * step)
					}
					if selCase == "pos" {
						rng.Shuffle(n, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
					}
					b := bitset.New(n * step)
					for i := 0; i < n*step; i++ {
						if rng.Float64() < 0.3 {
							b.Set(i)
						}
					}
					sel.Bits = b
					sel.Pos = pos
					sel.PosSorted = selCase == "possorted"
				}
				for _, force := range []FilterMode{FilterAuto, FilterDense, FilterSparse} {
					if sel.Bits == nil && force != FilterAuto {
						continue
					}
					sel.Force = force
					k := 10
					hRAM := topk.New(k)
					ScanBlocked(hRAM, metric, query, data, dim, ids, sel)
					hSrc := topk.New(k)
					src := &chunkSource{t: t, data: data, dim: dim}
					ScanBlockedSource(hSrc, metric, query, src, ids, sel)
					src.Release()
					label := selCase + "/" + metric.String()
					exactResults(t, drain(hRAM), drain(hSrc), label)
				}
			}
		}
	}
}

// TestScanBlockedSourceSkipsExcludedBlocks: a selection with whole empty
// blocks must not fault those blocks in.
func TestScanBlockedSourceSkipsExcludedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 8
	n := 8 * ScanBlockRows
	data := randData(rng, n, dim)
	query := randData(rng, 1, dim)
	// Only block 2 has survivors.
	b := bitset.New(n)
	for i := 2 * ScanBlockRows; i < 3*ScanBlockRows; i += 2 {
		b.Set(i)
	}
	for _, force := range []FilterMode{FilterDense, FilterSparse} {
		src := &chunkSource{t: t, data: data, dim: dim}
		h := topk.New(5)
		ScanBlockedSource(h, vec.L2, query, src, nil, Selection{Bits: b, Force: force})
		src.Release()
		if src.fetches != 1 {
			t.Fatalf("force=%d: fetched %d blocks, want 1 (only the occupied block)", force, src.fetches)
		}
		if len(h.Results()) != 5 {
			t.Fatalf("force=%d: got %d results", force, len(h.Results()))
		}
	}
}

// TestScanBlockedSourceContiguousFastPath: a contiguous source must
// delegate to ScanBlocked (detected via block-fetch count staying zero).
func TestScanBlockedSourceContiguousFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim = 4
	data := randData(rng, 500, dim)
	query := randData(rng, 1, dim)
	h := topk.New(3)
	ScanBlockedSource(h, vec.L2, query, SliceSource{Data: data, D: dim}, nil, Selection{})
	h2 := topk.New(3)
	ScanBlocked(h2, vec.L2, query, data, dim, nil, Selection{})
	exactResults(t, drain(h2), drain(h), "contiguous")
}

// TestRangeSourceConformance: a ranged view over a shared source must
// behave exactly like a slice of the underlying rows, including ranges
// that straddle parent block boundaries.
func TestRangeSourceConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 16
	parentRows := 2000
	data := randData(rng, parentRows, dim)
	query := randData(rng, 1, dim)
	for _, r := range []struct{ start, n int }{
		{0, 100}, {256, 256}, {100, 700}, {137, 519}, {1999, 1}, {300, 0},
	} {
		sub := data[r.start*dim : (r.start+r.n)*dim]
		hRAM := topk.New(7)
		ScanBlocked(hRAM, vec.L2, query, sub, dim, nil, Selection{})

		rs := &RangeSource{Src: &chunkSource{t: t, data: data, dim: dim}, Start: r.start, N: r.n}
		hSrc := topk.New(7)
		ScanBlockedSource(hSrc, vec.L2, query, rs, nil, Selection{})
		rs.Release()
		exactResults(t, drain(hRAM), drain(hSrc), "range")
	}
}

// TestByteRangeSource: the code-shaped range source serves exactly the
// underlying rows for aligned and straddling spans.
func TestByteRangeSource(t *testing.T) {
	const rb = 12
	parentRows := 1000
	data := make([]byte, parentRows*rb)
	for i := range data {
		data[i] = byte(i * 31)
	}
	parent := &byteChunkSource{data: data, rb: rb}
	rs := &ByteRangeSource{Src: parent, Start: 200, N: 600}
	defer rs.Release()
	for i0 := 0; i0 < 600; i0 += ScanBlockRows {
		i1 := i0 + ScanBlockRows
		if i1 > 600 {
			i1 = 600
		}
		got := rs.Block(i0, i1)
		want := data[(200+i0)*rb : (200+i1)*rb]
		if len(got) != len(want) {
			t.Fatalf("block [%d,%d): len %d want %d", i0, i1, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("block [%d,%d): byte %d differs", i0, i1, j)
			}
		}
	}
}

type byteChunkSource struct {
	data []byte
	rb   int
	buf  []byte
}

func (b *byteChunkSource) Rows() int     { return len(b.data) / b.rb }
func (b *byteChunkSource) RowBytes() int { return b.rb }
func (b *byteChunkSource) Block(i0, i1 int) []byte {
	if b.buf == nil {
		b.buf = make([]byte, ScanBlockRows*b.rb)
	}
	n := copy(b.buf, b.data[i0*b.rb:i1*b.rb])
	return b.buf[:n]
}
func (b *byteChunkSource) Release() {}
