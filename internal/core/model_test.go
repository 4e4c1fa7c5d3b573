package core

import (
	"math/rand"
	"testing"

	"vectordb/internal/objstore"
)

// TestEngineAgainstModel drives random insert/delete/update/flush sequences
// — inserts and deletes in batches of random size: one row, a few, one
// over the MemTable bound and one that splits across two seals — against
// a plain map model and checks that visibility (Get, Count, search
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
				case op < 5: // insert a batch of new rows
					batch := make([]Entity, []int{1, 1 + r.Intn(8), cfg.FlushRows + 1, 2*cfg.FlushRows + 6}[r.Intn(4)])
					for i := range batch {
						v := []float32{r.Float32(), r.Float32(), r.Float32(), r.Float32()}
						batch[i] = Entity{ID: nextID, Vectors: [][]float32{v}, Attrs: []int64{nextID}}
						model[nextID] = v
						nextID++
					}
					if err := c.Insert(batch); err != nil {
						t.Fatal(err)
					}
				case op < 7: // delete a batch of existing rows
					ids := existing()
					r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					ids = ids[:min(len(ids), 1+r.Intn(6))]
					if err := c.Delete(ids); err != nil {
						t.Fatal(err)
					}
					for _, id := range ids {
						delete(model, id)
					}
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
		res, err := hitsOf(c, Request{Vector: v, SearchOptions: SearchOptions{K: 3}})
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
