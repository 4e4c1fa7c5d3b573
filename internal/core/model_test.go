package core

import (
	"math/rand"
	"testing"

	"vectordb/internal/objstore"
)

// TestEngineAgainstModel drives random insert/delete/update/flush sequences
// against a plain map model and checks that visibility (Get, Count, search
// membership, and every row's visibility bit against the tombstones it was
// resolved from) always matches after a Flush — the end-to-end invariant of
// the LSM + tombstone + merge machinery — and, every few flushes, in a
// collection restored from the flushed segments and tombstones.
func TestEngineAgainstModel(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(trial) + 100))
			cfg := testConfig()
			cfg.FlushRows = 32 // frequent flushes + merges
			store := objstore.NewMemory()
			c, err := NewCollection("model", testSchema(4), store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			model := map[int64][]float32{} // id → current vector
			nextID := int64(1)
			existing := func() []int64 {
				ids := make([]int64, 0, len(model))
				for id := range model {
					ids = append(ids, id)
				}
				return ids
			}

			for step := 0; step < 400; step++ {
				switch op := r.Intn(10); {
				case op < 5: // insert new
					v := []float32{r.Float32(), r.Float32(), r.Float32(), r.Float32()}
					id := nextID
					nextID++
					if err := c.Insert([]Entity{{ID: id, Vectors: [][]float32{v}, Attrs: []int64{id}}}); err != nil {
						t.Fatal(err)
					}
					model[id] = v
				case op < 7: // delete existing
					ids := existing()
					if len(ids) == 0 {
						continue
					}
					id := ids[r.Intn(len(ids))]
					if err := c.Delete([]int64{id}); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				case op < 9: // update = delete + reinsert
					ids := existing()
					if len(ids) == 0 {
						continue
					}
					id := ids[r.Intn(len(ids))]
					v := []float32{r.Float32() + 10, r.Float32(), r.Float32(), r.Float32()}
					c.Delete([]int64{id})
					if err := c.Insert([]Entity{{ID: id, Vectors: [][]float32{v}, Attrs: []int64{-id}}}); err != nil {
						t.Fatal(err)
					}
					model[id] = v
				default: // flush + full check
					if err := c.Flush(); err != nil {
						t.Fatal(err)
					}
					checkModel(t, c, model)
					if r.Intn(4) == 0 { // the stateless-restart path (Sec. 5.3)
						restored, err := RestoreCollection("restored", testSchema(4), store, cfg, c.SegmentKeys(), c.Tombstones())
						if err != nil {
							t.Fatal(err)
						}
						checkModel(t, restored, model)
						restored.Close()
					}
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			checkModel(t, c, model)
		})
	}
}

func checkModel(t *testing.T, c *Collection, model map[int64][]float32) {
	t.Helper()
	sn := c.AcquireSnapshot()
	checkVisibility(t, sn)
	c.ReleaseSnapshot(sn)
	if got := c.Count(); got != len(model) {
		t.Fatalf("Count = %d, model has %d", got, len(model))
	}
	for id, v := range model {
		e, ok := c.Get(id)
		if !ok {
			t.Fatalf("id %d missing", id)
		}
		for j := range v {
			if e.Vectors[0][j] != v[j] {
				t.Fatalf("id %d has stale vector: %v vs %v", id, e.Vectors[0], v)
			}
		}
	}
	if len(model) == 0 {
		return
	}
	// Every self-query must hit itself at distance 0 and never return a
	// deleted ID.
	checked := 0
	for id, v := range model {
		res, err := c.Search(v, SearchOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].Distance != 0 {
			t.Fatalf("self-query for %d missed: %v", id, res)
		}
		for _, rr := range res {
			if _, live := model[rr.ID]; !live {
				t.Fatalf("search returned deleted id %d", rr.ID)
			}
		}
		checked++
		if checked >= 5 {
			break
		}
	}
}
