// Package stress is a deterministic, seed-driven concurrent stress and
// fault-injection harness for the core query path. It drives a mixed
// insert/delete/search/flush/snapshot/index-build workload against one
// Collection from many goroutines, optionally through a fault-injecting
// object store, and checks the invariants that concurrency bugs break
// first: no lost acknowledged writes, snapshot monotonicity, well-formed
// search results, and a recall floor against a brute-force scan.
//
// The operation schedule is a pure function of the seed (see schedule.go),
// so a failing run reproduces with the same -seed; only the goroutine
// interleaving varies between runs.
package stress

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/objstore"
)

// ErrInjected marks failures produced by a FaultStore, so callers can tell
// deliberate faults from real bugs.
var ErrInjected = errors.New("stress: injected fault")

// FaultConfig sets per-operation fault probabilities in [0,1].
type FaultConfig struct {
	// FailRate drops the operation entirely: a Put stores nothing, a
	// Get/Delete does nothing; the call returns ErrInjected.
	FailRate float64
	// TornRate applies only to Put: a random prefix of the blob is stored
	// and the call still returns ErrInjected — the write "tore" mid-object.
	// Readers must treat such blobs as corrupt, never as committed.
	TornRate float64
	// DelayRate stalls the operation by a random slice of MaxDelay before
	// performing it, widening race windows (a slow flush, a slow sync).
	DelayRate float64
	// MaxDelay bounds injected stalls; default 2ms.
	MaxDelay time.Duration
}

// FaultStore wraps an objstore.Store with seeded, probabilistic fault
// injection. It is safe for concurrent use; the fault decision stream is
// guarded by a mutex so the store composes with any store underneath.
type FaultStore struct {
	inner objstore.Store
	cfg   FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	enabled  atomic.Bool
	injected atomic.Int64
}

// NewFaultStore wraps inner with fault injection driven by seed.
func NewFaultStore(inner objstore.Store, seed int64, cfg FaultConfig) *FaultStore {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	fs := &FaultStore{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	fs.enabled.Store(true)
	return fs
}

// Disable stops all fault injection (quiesce phase: the system must be able
// to drain to a consistent state once faults cease).
func (fs *FaultStore) Disable() { fs.enabled.Store(false) }

// Injected reports how many faults have been injected so far.
func (fs *FaultStore) Injected() int64 { return fs.injected.Load() }

// decision is one sample of the fault stream.
type decision struct {
	fail, torn bool
	delay      time.Duration
	tornFrac   float64
}

func (fs *FaultStore) draw(isPut bool) decision {
	if !fs.enabled.Load() {
		return decision{}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var d decision
	if fs.rng.Float64() < fs.cfg.DelayRate {
		d.delay = time.Duration(fs.rng.Int63n(int64(fs.cfg.MaxDelay)))
	}
	if isPut && fs.rng.Float64() < fs.cfg.TornRate {
		d.torn = true
		d.tornFrac = fs.rng.Float64()
		return d
	}
	if fs.rng.Float64() < fs.cfg.FailRate {
		d.fail = true
	}
	return d
}

// Put implements objstore.Store with fail/torn/delay injection.
func (fs *FaultStore) Put(key string, data []byte) error {
	d := fs.draw(true)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.torn {
		fs.injected.Add(1)
		// Persist a strict prefix: the blob is present but incomplete, like
		// a crash mid-upload on a store without atomic puts.
		n := int(d.tornFrac * float64(len(data)))
		if n >= len(data) && len(data) > 0 {
			n = len(data) - 1
		}
		_ = fs.inner.Put(key, data[:n])
		return fmt.Errorf("%w: torn write of %s (%d/%d bytes)", ErrInjected, key, n, len(data))
	}
	if d.fail {
		fs.injected.Add(1)
		return fmt.Errorf("%w: put %s", ErrInjected, key)
	}
	return fs.inner.Put(key, data)
}

// Get implements objstore.Store with fail/delay injection.
func (fs *FaultStore) Get(key string) ([]byte, error) {
	d := fs.draw(false)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		fs.injected.Add(1)
		return nil, fmt.Errorf("%w: get %s", ErrInjected, key)
	}
	return fs.inner.Get(key)
}

// Delete implements objstore.Store with fail/delay injection.
func (fs *FaultStore) Delete(key string) error {
	d := fs.draw(false)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail {
		fs.injected.Add(1)
		return fmt.Errorf("%w: delete %s", ErrInjected, key)
	}
	return fs.inner.Delete(key)
}

// List implements objstore.Store (never faulted: manifest listings are the
// control plane the harness itself relies on during verification).
func (fs *FaultStore) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }
