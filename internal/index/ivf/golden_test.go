package ivf

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.ivf2 and *.want from a fresh Build")

// The golden corpus: one small fixed-seed index per fine quantizer, in
// the IVF2 blob format, with one fixed query's top-k beside it. The blobs
// pin the durable format: whatever in-memory layout the index uses, a
// decoded blob must marshal back to the same bytes and answer the same.
const (
	goldenRows   = 512
	goldenDim    = 16
	goldenNlist  = 8
	goldenNprobe = 4
	goldenK      = 10
)

func goldenBuilder(fine Fine) *Builder {
	return &Builder{Fine: fine, Metric: vec.L2, Dim: goldenDim, Nlist: goldenNlist, PQM: 4, PQKs: 16, MaxIter: 4, Seed: 1}
}

func goldenQuery() []float32 { return dataset.Uniform(1, goldenDim, 99).Data }

func goldenPath(fine Fine, ext string) string {
	return filepath.Join("testdata", strings.ToLower(fine.name())+ext)
}

// writeGolden rebuilds one fine's blob and expected results (go test -run
// TestGoldenBlobs -update).
func writeGolden(t *testing.T, fine Fine) {
	d := dataset.Uniform(goldenRows, goldenDim, 7)
	idx, err := goldenBuilder(fine).Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.(*IVF).MarshalIndex()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range idx.Search(goldenQuery(), index.SearchParams{K: goldenK, Nprobe: goldenNprobe}) {
		fmt.Fprintf(&want, "%d %s\n", r.ID, strconv.FormatFloat(float64(r.Distance), 'g', -1, 32))
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(fine, ".ivf2"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(fine, ".want"), want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBlobs decodes each golden blob, re-marshals it byte for byte
// and checks the fixed query's results: IDs exactly, distances to the
// 1e-5 relative tolerance that covers kernel tiers summing in a different
// order.
func TestGoldenBlobs(t *testing.T) {
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		t.Run(fine.name(), func(t *testing.T) {
			if *updateGolden {
				writeGolden(t, fine)
			}
			blob, err := os.ReadFile(goldenPath(fine, ".ivf2"))
			if err != nil {
				t.Fatal(err)
			}
			x, err := index.Unmarshal(fine.name(), vec.L2, goldenDim, blob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := x.(*IVF).MarshalIndex()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("re-marshaled blob differs from the golden (%d vs %d bytes)", len(again), len(blob))
			}
			f, err := os.Open(goldenPath(fine, ".want"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got := x.Search(goldenQuery(), index.SearchParams{K: goldenK, Nprobe: goldenNprobe})
			sc := bufio.NewScanner(f)
			i := 0
			for ; sc.Scan(); i++ {
				var id int64
				var dist float64
				if _, err := fmt.Sscan(sc.Text(), &id, &dist); err != nil {
					t.Fatalf("want line %d: %v", i, err)
				}
				if i >= len(got) {
					t.Fatalf("%d results, want more", len(got))
				}
				if got[i].ID != id || math.Abs(float64(got[i].Distance)-dist) > 1e-5*math.Max(1, math.Abs(dist)) {
					t.Fatalf("rank %d: got (%d, %g), want (%d, %g)", i, got[i].ID, got[i].Distance, id, dist)
				}
			}
			if i != len(got) {
				t.Fatalf("%d results, want %d", len(got), i)
			}
		})
	}
}
