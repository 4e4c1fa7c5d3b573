// Package xblock seeds transitive lockdiscipline violations: blocking
// operations reached through a call chain while a mutex is held, not
// lexically inside the locked region.
package xblock

import "sync"

// D couples a mutex with a channel, one call away from every mistake.
type D struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// notify blocks on the channel; callers must not hold d.mu.
func (d *D) notify() {
	d.ch <- 1
}

// relay adds a second level of indirection over notify.
func (d *D) relay() {
	d.notify()
}

// Bad reaches the channel send through one call while holding the lock.
func (d *D) Bad() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.notify() // want lockdiscipline "D.mu held across call to xblock.D.notify, which may block on channel send"
}

// BadDeep reaches it through two calls; the chain is printed.
func (d *D) BadDeep() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.relay() // want lockdiscipline "which may block on channel send via xblock.D.notify"
}

// Unlocked releases before notifying: no finding.
func (d *D) Unlocked() {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
	d.notify()
}

// tryNotify uses a non-blocking select, safe to reach under the lock.
func (d *D) tryNotify() {
	select {
	case d.ch <- 1:
	default:
	}
}

// GoodTry holds the lock across a non-blocking attempt: no finding.
func (d *D) GoodTry() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tryNotify()
}

// Allowed documents an intentional hold; the pragma suppresses it.
func (d *D) Allowed() {
	d.mu.Lock()
	defer d.mu.Unlock()
	//lint:allow lockdiscipline fixture: intentional hold proving pragma coverage for a transitive site
	d.notify()
}
