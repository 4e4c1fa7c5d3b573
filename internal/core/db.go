package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vectordb/internal/exec"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/vec"
)

// DB groups named collections over one object store and owns the
// process-wide observability state: a metric registry every collection
// (and the REST /metrics endpoint) records into, and a query log that
// captures per-query traces for /debug/queries.
type DB struct {
	store   objstore.Store
	reg     *obs.Registry
	qlog    *obs.QueryLog
	pool    *exec.Pool
	planner *plan.Planner

	mu          sync.RWMutex
	collections map[string]*Collection

	// tier holds the database-wide out-of-core defaults installed by
	// EnableTiering; collections created without their own tier settings
	// inherit them.
	tier TierDefaults
}

// NewDB creates a database over store (in-memory store when nil).
func NewDB(store objstore.Store) *DB {
	return NewDBWithExec(store, exec.Config{})
}

// NewDBWithExec creates a database whose shared execution pool uses the
// given sizing (worker count, admission queue, batch cap); the pool's Obs
// is always this DB's registry. It exists for deployments — and tests —
// that need bounds tighter or looser than the machine defaults.
func NewDBWithExec(store objstore.Store, pcfg exec.Config) *DB {
	if store == nil {
		store = objstore.NewMemory()
	}
	db := &DB{
		store:       store,
		reg:         obs.NewRegistry(),
		qlog:        obs.NewQueryLog(128, 64, 100*time.Millisecond),
		collections: map[string]*Collection{},
	}
	// One shared execution pool per DB: every collection's queries run on
	// it and its exec_* series land in this DB's registry (and /metrics).
	pcfg.Obs = db.reg
	db.pool = exec.NewPool(pcfg)
	// One cost-based planner per DB: every collection's queries plan
	// against the same cost profile, and the vectordb_plan_* series land
	// in this DB's registry.
	db.planner = plan.New(plan.Config{Obs: db.reg})
	registerRuntimeMetrics(db.reg)
	return db
}

// Planner returns the database's shared query planner.
func (db *DB) Planner() *plan.Planner { return db.planner }

// Obs returns the database's metric registry.
func (db *DB) Obs() *obs.Registry { return db.reg }

// Exec returns the database's shared execution pool.
func (db *DB) Exec() *exec.Pool { return db.pool }

// QueryLog returns the database's query-trace log.
func (db *DB) QueryLog() *obs.QueryLog { return db.qlog }

// registerRuntimeMetrics exposes process-level series: which SIMD kernel
// tier serves distance calls and how dispatches distribute across tiers.
// Dispatch counting is process-global; enabling it here means any DB in
// the process turns it on (the counters are shared, which is fine — they
// describe the process, not one DB).
func registerRuntimeMetrics(reg *obs.Registry) {
	vec.SetDispatchCounting(true)
	reg.GaugeFunc("vectordb_simd_level", func() int64 { return int64(vec.CurrentLevel()) })
	for _, l := range vec.Levels() {
		l := l
		reg.CounterFunc("vectordb_simd_dispatch_total", func() int64 { return vec.DispatchCount(l) },
			"level", l.String())
		reg.CounterFunc("vectordb_simd_batch_dispatch_total", func() int64 { return vec.BatchDispatchCount(l) },
			"level", l.String())
	}
}

// TierDefaults is the database-wide out-of-core configuration: collections
// created without their own tier settings inherit it.
type TierDefaults struct {
	Dir string // extent-file root; one subdirectory per collection
	// Deprecated: ignored. Tiered scans read the mapping in place, so there
	// is no block cache to size; the field stays only until its one
	// setter, the benchmark server in e2ebench/server.go, stops setting it.
	CacheBytes  int64
	MappedBytes int64 // per-collection mapped-bytes budget (0 = unlimited)
}

// EnableTiering installs database-wide out-of-core defaults. Every
// collection created afterwards without explicit tier settings maps its
// sealed segment objects as extent files under Dir/<collection> (a cold
// segment keeps only its object in the database's store) and scans them
// in place. A second call, or a call with an empty Dir, is a no-op.
func (db *DB) EnableTiering(d TierDefaults) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tier.Dir != "" || d.Dir == "" {
		return
	}
	db.tier = d
}

// CreateCollection creates and registers a collection.
func (db *DB) CreateCollection(name string, schema Schema, cfg Config) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.collections[name]; dup {
		return nil, fmt.Errorf("core: collection %q already exists", name)
	}
	if cfg.Obs == nil {
		cfg.Obs = db.reg
	}
	if cfg.QueryLog == nil {
		cfg.QueryLog = db.qlog
	}
	if cfg.Exec == nil {
		cfg.Exec = db.pool
	}
	if cfg.Planner == nil {
		cfg.Planner = db.planner
	}
	if db.tier.Dir != "" && cfg.TierDir == "" {
		cfg.TierDir = db.tier.Dir
		if cfg.TierMappedBytes == 0 {
			cfg.TierMappedBytes = db.tier.MappedBytes
		}
	}
	c, err := NewCollection(name, schema, db.store, cfg)
	if err != nil {
		return nil, err
	}
	db.collections[name] = c
	return c, nil
}

// Collection returns a collection by name.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.collections[name]
	if !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", name)
	}
	return c, nil
}

// DropCollection closes and removes a collection and its stored segments.
func (db *DB) DropCollection(name string) error {
	db.mu.Lock()
	c, ok := db.collections[name]
	delete(db.collections, name)
	db.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: collection %q does not exist", name)
	}
	if err := c.Close(); err != nil {
		return err
	}
	// The collection's series go with it: their scrape-time funcs hold its
	// last snapshot. A collection re-created under the name meanwhile has
	// registered its own, so they stay.
	db.mu.Lock()
	if _, back := db.collections[name]; !back {
		db.reg.Forget("collection", name)
	}
	db.mu.Unlock()
	keys, err := db.store.List(fmt.Sprintf("col/%s/", name))
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := db.store.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// ListCollections returns collection names, sorted.
func (db *DB) ListCollections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.collections))
	for n := range db.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close stops the execution pool, then closes every collection. The pool
// goes first: it stops admitting (later searches get exec.ErrClosed),
// fails the queued ones and waits out the running ones before its workers
// stop, so no search is left submitting to stopped workers. The collection
// map is detached under db.mu, but the closes themselves — the pool's
// drain and collection flushes — run after the mutex is released so a slow
// shutdown cannot convoy concurrent Get/List callers.
func (db *DB) Close() error {
	db.mu.Lock()
	cols := db.collections
	db.collections = map[string]*Collection{}
	db.mu.Unlock()
	db.pool.Close()
	var first error
	for _, c := range cols {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
