// Package exec stubs the real module's shared execution pool. The
// lockdiscipline analyzer flags a call of its blocking methods under a
// mutex once, as a block site; Close blocks in its own body too, so a
// second report of the same call as a transitively blocking call edge
// would show in the golden test.
package exec

import (
	"context"
	"sync"
)

// Pool is a bounded worker pool.
type Pool struct {
	workers sync.WaitGroup
}

// Default returns the shared pool.
func Default() *Pool { return &Pool{} }

// Map runs fn(0)..fn(n-1) on the pool, blocking until all complete.
func (p *Pool) Map(ctx context.Context, n int, fn func(int)) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(i)
	}
	return ctx.Err()
}

// Admit blocks for an in-flight slot and returns its release.
func (p *Pool) Admit() func() { return func() {} }

// Close drains the pool, blocking until every worker exits.
func (p *Pool) Close() { p.workers.Wait() }
