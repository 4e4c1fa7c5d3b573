// Package blockcache stubs the real module's block cache: the analyzers
// match packages by import-path suffix, so this stand-in triggers the same
// blockpin tracking as vectordb/internal/blockcache.
package blockcache

// Key identifies one cached block of one extent of one owner.
type Key struct {
	Owner uint64
	Ext   uint32
	Block uint32
}

// Pin is a live reference to a cached block; the zero Pin is a no-op.
type Pin struct {
	b []byte
}

// Bytes returns the pinned block.
func (p Pin) Bytes() []byte { return p.b }

// Release drops the reference.
func (p Pin) Release() {}

// Cache is a capacity-bounded block cache.
type Cache struct{}

// New returns a cache with the given capacity.
func New(capacity int64, shards int) *Cache { return &Cache{} }

// GetOrLoad returns a pinned view of the size-byte block for k, invoking
// fill on a miss to write it into a cache-owned frame. The returned Pin
// must be released on every path.
func (c *Cache) GetOrLoad(k Key, size int, fill func(dst []byte) error) (Pin, error) {
	b := make([]byte, size)
	if err := fill(b); err != nil {
		return Pin{}, err
	}
	return Pin{b: b}, nil
}
