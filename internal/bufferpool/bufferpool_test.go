package bufferpool

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestGetLoadsAndCaches(t *testing.T) {
	loads := 0
	p := New(100, func(key string) (any, int64, error) {
		loads++
		return "v:" + key, 10, nil
	})
	v, err := p.Get("a")
	if err != nil || v != "v:a" {
		t.Fatalf("Get = %v, %v", v, err)
	}
	p.Get("a")
	if loads != 1 {
		t.Fatalf("loads = %d, want 1 (second Get must hit)", loads)
	}
	h, m := p.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits %d misses", h, m)
	}
}

func TestLRUEviction(t *testing.T) {
	loads := map[string]int{}
	p := New(30, func(key string) (any, int64, error) { loads[key]++; return key, 10, nil })
	p.Get("a")
	p.Get("b")
	p.Get("c")
	p.Get("a") // refresh a; b is now LRU
	p.Get("d") // evicts b
	for _, k := range []string{"a", "c", "d"} {
		if p.Get(k); loads[k] != 1 {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
	if p.Get("b"); loads["b"] != 2 {
		t.Fatal("b not evicted")
	}
	if p.used != 30 {
		t.Fatalf("used = %d", p.used)
	}
}

func TestOversizeServedUncached(t *testing.T) {
	loads := 0
	p := New(5, func(key string) (any, int64, error) { loads++; return key, 10, nil })
	for i := 0; i < 2; i++ {
		v, err := p.Get("big")
		if err != nil || v != "big" {
			t.Fatalf("Get = %v, %v", v, err)
		}
	}
	if loads != 2 || p.used != 0 {
		t.Fatalf("oversize value was cached: %d loads, %d bytes used", loads, p.used)
	}
}

func TestLoaderErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	p := New(10, func(key string) (any, int64, error) { return nil, 0, boom })
	if _, err := p.Get("x"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, nil)
}

func TestConcurrentAccess(t *testing.T) {
	p := New(64, func(key string) (any, int64, error) { return key, 8, nil })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w+i)%16)
				if v, err := p.Get(k); err != nil || v != k {
					t.Errorf("Get(%s) = %v, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p.used > 64 {
		t.Fatalf("used = %d exceeds capacity", p.used)
	}
}
