package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectordb/internal/exec"
	"vectordb/internal/obs"
	"vectordb/internal/query"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Conformance contract: the batched executor must be RESULT-IDENTICAL to
// the per-query path. All vectors here are integer-valued, so every float32
// distance accumulation is exact (sums of small-integer products stay far
// below 2^24) and the tile kernels' different accumulation order cannot
// produce a different value than the per-query kernels — equality can be
// asserted bit-for-bit, modulo ID order within exact distance ties.

// intVec returns a vector of small integer components: distances computed
// from these are exact in float32 regardless of accumulation order.
func intVec(r *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for j := range v {
		v[j] = float32(r.Intn(17) - 8)
	}
	return v
}

func intEntities(n, dim int, seed int64) []Entity {
	r := rand.New(rand.NewSource(seed))
	out := make([]Entity, n)
	for i := range out {
		out[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{intVec(r, dim)}, Attrs: []int64{int64(r.Intn(1000))}}
	}
	return out
}

// sameResults asserts exact equality of two top-k lists: the distance
// sequences must match bitwise, and within each group of tied distances
// the ID sets must match (tie-breaking order is the only latitude the two
// execution orders legitimately have).
func sameResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Distance != want[i].Distance {
			t.Fatalf("%s: result %d distance %v, want %v\n got: %v\nwant: %v",
				label, i, got[i].Distance, want[i].Distance, got, want)
		}
	}
	for i := 0; i < len(got); {
		j := i
		for j < len(got) && got[j].Distance == got[i].Distance {
			j++
		}
		ids := func(rs []topk.Result) []int64 {
			s := make([]int64, 0, j-i)
			for _, r := range rs[i:j] {
				s = append(s, r.ID)
			}
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			return s
		}
		gi, wi := ids(got), ids(want)
		for k := range gi {
			if gi[k] != wi[k] {
				t.Fatalf("%s: tie group [%d,%d) ids %v, want %v", label, i, j, gi, wi)
			}
		}
		i = j
	}
}

// conformanceCollection builds an indexed (or scan-only) collection of
// integer vectors with some rows tombstoned, so the batched path's
// visibility filtering is exercised too.
func conformanceCollection(t *testing.T, metric vec.Metric, indexType string) (*Collection, []Entity) {
	t.Helper()
	cfg := testConfig()
	cfg.FlushRows = 256
	if indexType != "" {
		cfg.IndexType = indexType
		cfg.IndexRows = 1 // index every segment, synchronously
	}
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 16, Metric: metric}},
		AttrFields:   []string{"price"},
	}
	c, err := NewCollection("conf", schema, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := intEntities(900, 16, 7)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for id := int64(1); id <= 40; id += 2 {
		dead = append(dead, id)
	}
	if err := c.Delete(dead); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, ents
}

// TestBatchConformance: the batched executor against the per-query path,
// across index types and both decomposable metrics.
func TestBatchConformance(t *testing.T) {
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		for _, indexType := range []string{"", "FLAT", "IVF_FLAT", "IVF_SQ8"} {
			name := fmt.Sprintf("%s/%s", metric, indexType)
			if indexType == "" {
				name = fmt.Sprintf("%s/scan", metric)
			}
			t.Run(name, func(t *testing.T) {
				c, ents := conformanceCollection(t, metric, indexType)
				r := rand.New(rand.NewSource(11))
				queries := [][]float32{
					ents[100].Vectors[0], // exact self-match
					ents[500].Vectors[0],
					intVec(r, 16),
					intVec(r, 16),
					intVec(r, 16), // 5 queries: tile of 4 plus remainder
				}
				opts := SearchOptions{K: 10, Nprobe: 8}
				want := make([][]topk.Result, len(queries))
				for i, q := range queries {
					var err error
					if want[i], err = c.SearchCtx(context.Background(), q, opts); err != nil {
						t.Fatal(err)
					}
				}
				got, err := c.SearchBatchCtx(context.Background(), queries, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					sameResults(t, fmt.Sprintf("query %d", i), got[i], want[i])
				}
			})
		}
	}
}

// TestFormerConformanceUnderConcurrency drives the real former through
// concurrent SearchCtx traffic: every caller uses a distinct sentinel
// query whose reference results were computed sequentially up front, so
// any cross-query result bleed inside a shared tile is an exact-compare
// failure.
func TestFormerConformanceUnderConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.FlushRows = 256
	cfg.Obs = reg
	c, err := NewCollection("conc", testSchema(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := intEntities(600, 16, 13)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	const callers = 16
	const perCaller = 8
	opts := SearchOptions{K: 5}
	queries := make([][]float32, callers*perCaller)
	want := make([][]topk.Result, len(queries))
	for i := range queries {
		queries[i] = ents[i*3].Vectors[0]
		if want[i], err = c.SearchCtx(context.Background(), queries[i], opts); err != nil {
			t.Fatal(err)
		}
		if want[i][0].ID != ents[i*3].ID {
			t.Fatalf("reference %d: self-match ID %d, want %d", i, want[i][0].ID, ents[i*3].ID)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				qi := g*perCaller + i
				got, err := c.SearchCtx(context.Background(), queries[qi], opts)
				if err != nil {
					errs <- fmt.Errorf("query %d: %v", qi, err)
					return
				}
				for j := range got {
					if got[j].Distance != want[qi][j].Distance {
						errs <- fmt.Errorf("query %d result %d: distance %v, want %v (cross-query bleed?)",
							qi, j, got[j].Distance, want[qi][j].Distance)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// oneSegmentCollection builds a one-segment collection of integer vectors
// on a private two-worker pool, so the former has two run slots.
func oneSegmentCollection(t *testing.T, reg *obs.Registry) (*Collection, []Entity) {
	t.Helper()
	pool := exec.NewPool(exec.Config{Workers: 2})
	t.Cleanup(pool.Close)
	cfg := testConfig()
	cfg.FlushRows = 1 << 20
	cfg.Exec = pool
	cfg.Obs = reg
	c, err := NewCollection("one", testSchema(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := intEntities(600, 16, 17)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, ents
}

// TestTwoClientsNeverPark: two clients on a two-worker pool always find a
// free run slot, so every query runs alone at once — none parks, none
// waits.
func TestTwoClientsNeverPark(t *testing.T) {
	reg := obs.NewRegistry()
	c, ents := oneSegmentCollection(t, reg)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := c.SearchCtx(context.Background(), ents[(g*300+i)%len(ents)].Vectors[0], SearchOptions{K: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := reg.Counter("vectordb_batchform_queries_total", "collection", "one", "path", "batched").Value(); n != 0 {
		t.Errorf("%d of 600 queries parked with a run slot per client", n)
	}
	if n := reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", "one").Count(); n != 0 {
		t.Errorf("wait_seconds holds %d observations, want none", n)
	}
}

// TestDeepBacklogFormsOneBatch: with both run slots held by queries parked
// inside the index, ten compatible queries park; the first slot to free
// runs all ten as one batch, whose results equal the per-query path's.
func TestDeepBacklogFormsOneBatch(t *testing.T) {
	reg := obs.NewRegistry()
	c, ents := oneSegmentCollection(t, reg)
	var entered atomic.Int32
	gate := make(chan struct{})
	parkFirstSegment(t, c, func() {
		if entered.Add(1) <= 2 {
			<-gate
		}
	})
	opts := SearchOptions{K: 5}
	var holders sync.WaitGroup
	for i := 0; i < 2; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			if _, err := c.SearchCtx(context.Background(), ents[0].Vectors[0], opts); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); entered.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("slot holders never reached the index")
		}
	}

	const parked = 10
	got := make([][]topk.Result, parked)
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = c.SearchCtx(context.Background(), ents[10+i].Vectors[0], opts); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); c.former.Pending() < parked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries parked", c.former.Pending(), parked)
		}
	}
	close(gate)
	holders.Wait()
	wg.Wait()

	var batches int64
	for size := 1; size <= 16; size++ {
		batches += reg.Counter("vectordb_batchform_occupancy_total", "collection", "one", "size", strconv.Itoa(size)).Value()
	}
	if occ10 := reg.Counter("vectordb_batchform_occupancy_total", "collection", "one", "size", "10").Value(); batches != 1 || occ10 != 1 {
		t.Fatalf("formed %d batches (%d of occupancy 10), want exactly one of 10", batches, occ10)
	}
	for i := range got {
		want, err := c.SearchCtx(context.Background(), ents[10+i].Vectors[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("parked query %d", i), got[i], want)
	}
}

// TestMixedCompatibilityNeverShared: concurrent queries with different
// plan knobs (K, nprobe) are incompatible keys; each must still get
// exactly its own plan's results while the former is active.
func TestMixedCompatibilityNeverShared(t *testing.T) {
	c, ents := conformanceCollection(t, vec.L2, "IVF_FLAT")
	variants := []SearchOptions{
		{K: 3, Nprobe: 2},
		{K: 9, Nprobe: 2},
		{K: 3, Nprobe: 64}, // nprobe changes which cells are probed
	}
	queries := make([][]float32, 12)
	want := make([][]topk.Result, len(queries))
	var err error
	for i := range queries {
		queries[i] = ents[50+i*7].Vectors[0]
		if want[i], err = c.SearchCtx(context.Background(), queries[i], variants[i%len(variants)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for round := 0; round < 4; round++ {
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				opts := variants[i%len(variants)]
				got, err := c.SearchCtx(context.Background(), queries[i], opts)
				if err != nil {
					errs <- fmt.Errorf("query %d: %v", i, err)
					return
				}
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("query %d (K=%d): %d results, want %d — incompatible queries shared a plan",
						i, opts.K, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j].Distance != want[i][j].Distance {
						errs <- fmt.Errorf("query %d result %d: distance %v, want %v", i, j, got[j].Distance, want[i][j].Distance)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFilterStrategyConformance runs every filter strategy (A, B, C via
// direct strategy calls, D via SearchFilteredCtx, E via partitioned
// tables) while plain concurrent traffic keeps the former actively
// forming batches on the same collection and pool. Filtered queries
// bypass the former by construction (a filter is a per-query plan), so
// their results must be bit-identical to the sequential reference.
func TestFilterStrategyConformance(t *testing.T) {
	c, ents := conformanceCollection(t, vec.L2, "")
	qv := ents[123].Vectors[0]
	rc := query.RangeCond{Attr: 0, Lo: 200, Hi: 700}
	vc := func() query.VecCond { return query.VecCond{Field: 0, Query: qv, K: 8} }

	runStrategies := func() map[string][]topk.Result {
		out := map[string][]topk.Result{}
		src := c.Source()
		out["A"] = query.StrategyA(src, rc, vc())
		src.Release()
		src = c.Source()
		out["B"] = query.StrategyB(src, rc, vc())
		src.Release()
		src = c.Source()
		out["C"] = query.StrategyC(src, rc, vc())
		src.Release()
		var err error
		if out["D"], err = c.SearchFilteredCtx(context.Background(), qv, "price", 200, 700, SearchOptions{K: 8}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Strategy E runs over partitioned tables built from the same rows.
	runE := func() []topk.Result {
		dim := 16
		data := make([]float32, 0, len(ents)*dim)
		ids := make([]int64, 0, len(ents))
		attrs := make([]int64, 0, len(ents))
		sn := c.AcquireSnapshot()
		defer c.ReleaseSnapshot(sn)
		for _, e := range ents {
			if _, ok := c.Get(e.ID); !ok {
				continue // tombstoned
			}
			data = append(data, e.Vectors[0]...)
			ids = append(ids, e.ID)
			attrs = append(attrs, e.Attrs[0])
		}
		tab, err := query.NewTable(vec.L2, dim, data, ids, [][]int64{attrs})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := tab.PartitionByAttr(0, 4, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return query.StrategyE(query.Partitions(parts), rc, vc(), query.DefaultCostModel())
	}

	want := runStrategies()
	wantE := runE()

	// Background load: plain queries that coalesce in the former.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = c.SearchCtx(context.Background(), ents[g*11].Vectors[0], SearchOptions{K: 5})
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		got := runStrategies()
		for s, res := range got {
			sameResults(t, "strategy "+s, res, want[s])
		}
		sameResults(t, "strategy E", runE(), wantE)
	}
	close(stop)
	wg.Wait()

	// Strategies must agree with each other exactly on integer data (A is
	// the brute-force ground truth; no indexes are involved here).
	for s, res := range want {
		sameResults(t, "strategy "+s+" vs A", res, want["A"])
	}
	sameResults(t, "strategy E vs A", wantE, want["A"])
}
