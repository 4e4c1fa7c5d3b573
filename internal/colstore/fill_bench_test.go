package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vectordb/internal/bitset"
)

// BenchmarkFillRange is the measurement behind wideFillDiv and atFillDiv:
// the narrow (sorted run) and wide (raw word fill) halves of FillRange at
// the same match fractions over shuffled keys, and the positional fill at
// a sorted random 1/16, 1/4 and 1/2 of the rows (an IVF probe's). ns/op ÷
// rows (÷ positions) at each fraction shows where they cross.
func BenchmarkFillRange(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 20} {
		r := rand.New(rand.NewSource(1))
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(r.Intn(1000))
		}
		col := BuildAttributeColumn(values, nil)
		out := bitset.New(n)
		for _, pct := range []int{1, 5, 10, 12, 25, 50, 100} {
			hi := int64(pct*10 - 1)
			for _, path := range []string{"narrow", "wide", "at/16", "at/4", "at/2"} {
				var at []int32
				if d, ok := strings.CutPrefix(path, "at/"); ok {
					div, _ := strconv.Atoi(d)
					for _, p := range r.Perm(n)[:n/div] {
						at = append(at, int32(p))
					}
					slices.Sort(at)
				}
				b.Run(fmt.Sprintf("n=%d/sel=%d%%/%s", n, pct, path), func(b *testing.B) {
					ulo, span := uint64(0), uint64(hi)
					for i := 0; i < b.N; i++ {
						out.Reset(n)
						switch path {
						case "narrow":
							col.fillRun(col.seek(0, false), col.seek(hi, true), out)
						case "wide":
							col.fillWords(ulo, span, out)
						default:
							col.fillAt(ulo, span, at, out)
						}
					}
				})
			}
		}
	}
}
