package gpu

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func testCfg() Config {
	return Config{
		MemBytes:         1000,
		PCIeBandwidth:    1e6, // 1 byte/µs
		PCIeLatency:      time.Millisecond,
		KernelThroughput: 1e9,
		MaxKernelK:       4,
	}
}

func TestEnsureResidentChargesOnlyMisses(t *testing.T) {
	d := NewDevice(0, testCfg())
	tb, err := d.EnsureResident([]string{"a"}, []int64{100})
	if err != nil || tb != 100 {
		t.Fatalf("first transfer: %d, %v", tb, err)
	}
	c1 := d.Clock()
	if c1 < time.Millisecond {
		t.Fatalf("clock %v did not include latency", c1)
	}
	tb, err = d.EnsureResident([]string{"a"}, []int64{100})
	if err != nil || tb != 0 {
		t.Fatalf("warm hit transferred %d, %v", tb, err)
	}
	if d.Clock() != c1 {
		t.Fatal("warm hit advanced the clock")
	}
}

func TestMultiBucketCopyAmortizesLatency(t *testing.T) {
	grouped := NewDevice(0, testCfg())
	keys := []string{"b1", "b2", "b3", "b4"}
	sizes := []int64{50, 50, 50, 50}
	if _, err := grouped.EnsureResident(keys, sizes); err != nil {
		t.Fatal(err)
	}
	oneByOne := NewDevice(1, testCfg())
	for i := range keys {
		if _, err := oneByOne.EnsureResident(keys[i:i+1], sizes[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	// Same bytes, but 4 latency charges vs 1: grouped must be 3 ms faster.
	diff := oneByOne.Clock() - grouped.Clock()
	if diff != 3*time.Millisecond {
		t.Fatalf("latency amortization = %v, want 3ms", diff)
	}
	gc, gb := grouped.Stats()
	oc, ob := oneByOne.Stats()
	if gc != 1 || oc != 4 || gb != 200 || ob != 200 {
		t.Fatalf("stats grouped=(%d,%d) oneByOne=(%d,%d)", gc, gb, oc, ob)
	}
}

func TestLRUEviction(t *testing.T) {
	d := NewDevice(0, testCfg()) // 1000 bytes
	for i := 0; i < 3; i++ {
		if _, err := d.EnsureResident([]string{fmt.Sprintf("s%d", i)}, []int64{400}); err != nil {
			t.Fatal(err)
		}
	}
	// s0 is LRU and must have been evicted to fit s2.
	if d.Resident("s0") {
		t.Fatal("s0 not evicted")
	}
	if !d.Resident("s1") || !d.Resident("s2") {
		t.Fatal("recent entries evicted")
	}
	if d.used != 800 {
		t.Fatalf("resident bytes = %d, want 800", d.used)
	}
	// Touch s1 then add s3: s2 becomes the victim.
	if _, err := d.EnsureResident([]string{"s1"}, []int64{400}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EnsureResident([]string{"s3"}, []int64{400}); err != nil {
		t.Fatal(err)
	}
	if d.Resident("s2") || !d.Resident("s1") || !d.Resident("s3") {
		t.Fatal("LRU order violated")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	d := NewDevice(0, testCfg())
	if _, err := d.EnsureResident([]string{"huge"}, []int64{2000}); err == nil {
		t.Fatal("entry larger than device memory accepted")
	}
}

func TestEvictAndReset(t *testing.T) {
	d := NewDevice(0, testCfg())
	d.EnsureResident([]string{"x"}, []int64{10})
	d.Evict("x")
	if d.Resident("x") || d.used != 0 {
		t.Fatal("Evict failed")
	}
}

func TestKernelCost(t *testing.T) {
	d := NewDevice(0, testCfg())
	d.RunKernel(1e9) // 1 second of work at 1e9 dims/s
	if got := d.Clock(); got != time.Second {
		t.Fatalf("Clock = %v, want 1s", got)
	}
	d.RunKernel(0)
	d.RunKernel(-5)
	if got := d.Clock(); got != time.Second {
		t.Fatalf("zero/negative kernels changed clock: %v", got)
	}
}

func TestSchedulerStickyAndLeastLoaded(t *testing.T) {
	s := NewScheduler()
	if _, err := s.Assign("seg"); err == nil {
		t.Fatal("empty scheduler assigned a device")
	}
	d0 := NewDevice(0, testCfg())
	d1 := NewDevice(1, testCfg())
	if err := s.AddDevice(d0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDevice(d0); err == nil {
		t.Fatal("duplicate device accepted")
	}
	if err := s.AddDevice(d1); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Assign("segA")
	a.RunKernel(5e9) // load it up
	b, _ := s.Assign("segB")
	if b.ID() == a.ID() {
		t.Fatal("least-loaded assignment failed")
	}
	// Sticky: segA goes back to its device even though it is busier.
	again, _ := s.Assign("segA")
	if again.ID() != a.ID() {
		t.Fatal("sticky assignment failed")
	}
	if s.MaxClock() <= 0 {
		t.Fatal("MaxClock not positive after kernels ran")
	}
}

func TestElasticAddPicksUpNextTask(t *testing.T) {
	s := NewScheduler()
	d0 := NewDevice(0, testCfg())
	s.AddDevice(d0)
	d0.RunKernel(1e9)
	// A freshly installed device must receive the next new segment.
	d1 := NewDevice(1, testCfg())
	s.AddDevice(d1)
	got, _ := s.Assign("fresh-seg")
	if got.ID() != 1 {
		t.Fatalf("new device not used: got %d", got.ID())
	}
}

func TestTopKLargeKMultiRound(t *testing.T) {
	d := NewDevice(0, testCfg()) // MaxKernelK = 4
	r := rand.New(rand.NewSource(1))
	n := 100
	ids := make([]int64, n)
	dists := make([]float32, n)
	for i := range ids {
		ids[i] = int64(i)
		dists[i] = r.Float32()
	}
	for _, k := range []int{1, 3, 4, 5, 17, 100, 200} {
		got := d.TopKLargeK(ids, dists, k)
		want := append([]float32(nil), dists...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		wantN := k
		if wantN > n {
			wantN = n
		}
		if len(got) != wantN {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), wantN)
		}
		for i, res := range got {
			if res.Distance != want[i] {
				t.Fatalf("k=%d: result %d = %v, want %v", k, i, res.Distance, want[i])
			}
		}
		// no duplicates
		seen := map[int64]struct{}{}
		for _, res := range got {
			if _, dup := seen[res.ID]; dup {
				t.Fatalf("k=%d: duplicate id %d", k, res.ID)
			}
			seen[res.ID] = struct{}{}
		}
	}
}

func TestTopKLargeKEqualDistances(t *testing.T) {
	// Many vectors tied at the same distance: the round protocol records
	// tied IDs so distinct-but-equal vectors are neither lost nor repeated.
	d := NewDevice(0, testCfg()) // MaxKernelK = 4
	n := 20
	ids := make([]int64, n)
	dists := make([]float32, n)
	for i := range ids {
		ids[i] = int64(i)
		dists[i] = 1.0 // all tied
	}
	got := d.TopKLargeK(ids, dists, 10)
	if len(got) != 10 {
		t.Fatalf("%d results, want 10", len(got))
	}
	seen := map[int64]struct{}{}
	for _, r := range got {
		if r.Distance != 1.0 {
			t.Fatalf("distance %v, want 1.0", r.Distance)
		}
		if _, dup := seen[r.ID]; dup {
			t.Fatalf("duplicate id %d", r.ID)
		}
		seen[r.ID] = struct{}{}
	}
}

func TestTopKLargeKEdgeCases(t *testing.T) {
	d := NewDevice(0, testCfg())
	if got := d.TopKLargeK(nil, nil, 5); got != nil {
		t.Fatalf("empty pool returned %v", got)
	}
	if got := d.TopKLargeK([]int64{1}, []float32{2}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestCPUModelCost(t *testing.T) {
	m := CPUModel{DistThroughput: 1e9}
	if got := m.Cost(1e9); got != time.Second {
		t.Fatalf("Cost = %v, want 1s", got)
	}
	if got := m.Cost(0); got != 0 {
		t.Fatalf("Cost(0) = %v", got)
	}
	def := DefaultCPUModel()
	if def.DistThroughput <= 0 {
		t.Fatal("default CPU model empty")
	}
}

// Resident reports whether key is in device memory.
func (d *Device) Resident(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.resident[key]
	return ok
}
