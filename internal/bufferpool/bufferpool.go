// Package bufferpool implements the LRU buffer manager of Sec. 2.4. Milvus
// assumes most data is memory resident; when it is not, segments — the
// basic unit of searching, scheduling and buffering (Sec. 2.3) — are cached
// under an LRU policy and reloaded from the object store on miss.
package bufferpool

import (
	"container/list"
	"fmt"
	"sync"
)

// Loader materializes an evicted entry on a cache miss.
type Loader func(key string) (value any, size int64, err error)

// Pool is an LRU cache keyed by segment name, bounded by total byte size.
type Pool struct {
	capacity int64
	load     Loader

	mu      sync.Mutex
	order   *list.List // front = most recent
	entries map[string]*list.Element
	used    int64
	hits    int64
	misses  int64
}

type entry struct {
	key   string
	value any
	size  int64
}

// New creates a pool of the given byte capacity.
func New(capacity int64, load Loader) *Pool {
	if capacity <= 0 {
		panic("bufferpool: capacity must be positive")
	}
	return &Pool{capacity: capacity, load: load, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached value for key, loading it on a miss and evicting
// LRU entries to fit. Values larger than the pool are returned uncached.
func (p *Pool) Get(key string) (any, error) {
	p.mu.Lock()
	if el, ok := p.entries[key]; ok {
		p.order.MoveToFront(el)
		p.hits++
		v := el.Value.(*entry).value
		p.mu.Unlock()
		return v, nil
	}
	p.misses++
	p.mu.Unlock()

	v, size, err := p.load(key)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: load %q: %w", key, err)
	}
	if size > p.capacity {
		return v, nil // too big to cache: serve uncached
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.entries[key]; ok { // racing loader won
		p.order.MoveToFront(el)
		return el.Value.(*entry).value, nil
	}
	for p.used+size > p.capacity {
		back := p.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		p.order.Remove(back)
		delete(p.entries, e.key)
		p.used -= e.size
	}
	p.entries[key] = p.order.PushFront(&entry{key: key, value: v, size: size})
	p.used += size
	return v, nil
}

// Stats reports hit/miss counters.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
