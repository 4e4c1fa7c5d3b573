// Package pinbad seeds blockpin violations: leaked, discarded and
// branch-dependent cache pins, next to the legal shapes (defer, error
// return on the zero pin, escape to a struct field) that must stay silent.
package pinbad

import (
	"lintest.example/internal/blockcache"
)

func fillBlock(dst []byte) error { return nil }

// LeakToEnd falls off the end of the function with the pin live, so the
// cache entry's refcount never drops and eviction skips it forever.
func LeakToEnd(c *blockcache.Cache, k blockcache.Key) {
	pin, err := c.GetOrLoad(k, 64, fillBlock) // want blockpin "not released before the function returns"
	if err != nil {
		return
	}
	sum := 0
	for _, b := range pin.Bytes() {
		sum += int(b)
	}
	_ = sum
}

// Discarded never binds the pin at all; nothing can ever release it.
func Discarded(c *blockcache.Cache, k blockcache.Key) {
	c.GetOrLoad(k, 64, fillBlock)           // want blockpin "is discarded"
	_, err := c.GetOrLoad(k, 64, fillBlock) // want blockpin "is discarded"
	_ = err
}

// BranchyLeak releases on one branch only, so the merged fall-through
// state is unreleased.
func BranchyLeak(c *blockcache.Cache, k blockcache.Key, flag bool) {
	pin, err := c.GetOrLoad(k, 64, fillBlock) // want blockpin "not released before the function returns"
	if err != nil {
		return
	}
	if flag {
		pin.Release()
	}
}

// EarlyReturnLeak releases at the end but leaks on the mid-function
// return, which runs with the pin held.
func EarlyReturnLeak(c *blockcache.Cache, k blockcache.Key, n int) int {
	pin, err := c.GetOrLoad(k, 64, fillBlock)
	if err != nil {
		return 0
	}
	if n > len(pin.Bytes()) {
		return 0 // want blockpin "not released on this return path"
	}
	pin.Release()
	return n
}

// Deferred is the canonical legal shape: the error return carries the
// zero pin (Release is a no-op, nothing is held), every later path runs
// the defer.
func Deferred(c *blockcache.Cache, k blockcache.Key) (byte, error) {
	pin, err := c.GetOrLoad(k, 64, fillBlock)
	if err != nil {
		return 0, err
	}
	defer pin.Release()
	return pin.Bytes()[0], nil
}

// ReleaseBothPaths releases explicitly before each return.
func ReleaseBothPaths(c *blockcache.Cache, k blockcache.Key, flag bool) int {
	pin, err := c.GetOrLoad(k, 64, fillBlock)
	if err != nil {
		return 0
	}
	if flag {
		n := len(pin.Bytes())
		pin.Release()
		return n
	}
	pin.Release()
	return 0
}

// source mirrors the real tier sources: the pin escapes into the struct,
// whose Release method owns it from then on.
type source struct {
	pin blockcache.Pin
}

// EscapeToField stores the pin in a longer-lived struct: ownership
// transfers and tracking stops.
func (s *source) EscapeToField(c *blockcache.Cache, k blockcache.Key) []byte {
	s.pin.Release()
	pin, err := c.GetOrLoad(k, 64, fillBlock)
	if err != nil {
		return nil
	}
	s.pin = pin
	return pin.Bytes()
}

// Transfer returns the pin: the caller owns it.
func Transfer(c *blockcache.Cache, k blockcache.Key) (blockcache.Pin, error) {
	pin, err := c.GetOrLoad(k, 64, fillBlock)
	return pin, err
}
