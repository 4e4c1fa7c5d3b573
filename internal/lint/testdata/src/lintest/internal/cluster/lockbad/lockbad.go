// Package lockbad seeds lockdiscipline violations (blocking under a held
// mutex) and the lock-bearing copies go vet's copylocks check owns.
package lockbad

import (
	"sync"

	"lintest.example/internal/exec"
)

// Guarded couples a mutex with a channel, inviting every mistake below.
type Guarded struct {
	mu sync.Mutex
	ch chan int
}

// SendUnder sends on a channel between Lock and Unlock.
func (g *Guarded) SendUnder() {
	g.mu.Lock()
	g.ch <- 1 // want lockdiscipline "channel send while holding"
	g.mu.Unlock()
}

// RecvUnderDefer holds via defer for the whole body.
func (g *Guarded) RecvUnderDefer() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want lockdiscipline "channel receive while holding"
}

// DeclRecv hides the receive inside a var declaration.
func (g *Guarded) DeclRecv() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var v = <-g.ch // want lockdiscipline "channel receive while holding"
	return v
}

// WaitUnder parks on a WaitGroup with the lock held.
func (g *Guarded) WaitUnder(wg *sync.WaitGroup) {
	g.mu.Lock()
	wg.Wait() // want lockdiscipline "sync.WaitGroup.Wait while holding"
	g.mu.Unlock()
}

// SubmitUnder blocks on the shared execution pool's drain under the lock.
func (g *Guarded) SubmitUnder(p *exec.Pool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p.Close() // want lockdiscipline "exec pool Close while holding"
}

// SendAfter releases before the send: no finding.
func (g *Guarded) SendAfter() {
	g.mu.Lock()
	g.mu.Unlock()
	g.ch <- 1
}

// Copies receives the lock-bearing struct by value. // want-below vet "passes lock by value"
func Copies(g Guarded) int {
	return cap(g.ch)
}

// Deref copies through a pointer dereference.
func Deref(g *Guarded) int {
	cp := *g // want vet "assignment copies lock value"
	return cap(cp.ch)
}

// RangeCopy copies each element out of a slice of lock-bearing values.
func RangeCopy(gs []Guarded) int {
	n := 0
	for _, g := range gs { // want vet "range var g copies lock"
		n += cap(g.ch)
	}
	return n
}

// PointerParam shares through a pointer: no finding.
func PointerParam(g *Guarded) {}

// TrySendUnder attempts a send under the lock without waiting: a select
// with a default never parks, so no finding.
func (g *Guarded) TrySendUnder() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.ch <- 1:
		return true
	default:
		return false
	}
}

var (
	initMu sync.Mutex
	initCh = make(chan int, 1)
)

func init() {}

// A package may have several init functions; each is its own body.
func init() {
	initMu.Lock()
	initCh <- 1 // want lockdiscipline "channel send while holding lockbad.initMu"
	initMu.Unlock()
}
