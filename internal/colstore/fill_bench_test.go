package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
)

// BenchmarkFillRange is the measurement behind wideFillDiv: the narrow
// (sorted run) and wide (raw word fill) halves of FillRange at the same
// match fractions over shuffled keys. ns/op ÷ rows at each fraction shows
// where the two cross.
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
			for _, path := range []string{"narrow", "wide"} {
				b.Run(fmt.Sprintf("n=%d/sel=%d%%/%s", n, pct, path), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						out.Reset(n)
						if path == "narrow" {
							col.fillRun(col.seek(0, false), col.seek(hi, true), out)
						} else {
							col.fillWords(0, hi, out)
						}
					}
				})
			}
		}
	}
}
