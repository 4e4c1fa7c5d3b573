package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
)

// Cluster assembles the full distributed deployment of Fig. 5: shared
// storage, the coordinator ensemble, one writer, and N readers. It plays
// the roles of both the client router (fan-out + merge across readers) and
// the Kubernetes control loop (replacing crashed instances on request).
type Cluster struct {
	Store objstore.Store
	Coord *Coordinator

	mu        sync.Mutex
	writer    *Writer
	readers   map[string]*Reader
	nextID    int
	readerCfg ReaderConfig
}

// NewCluster builds a cluster with nReaders reader instances over store
// (a fresh in-memory store when nil).
func NewCluster(store objstore.Store, nReaders int, writerCfg core.Config, readerCfg ReaderConfig) (*Cluster, error) {
	if store == nil {
		store = objstore.NewMemory()
	}
	cl := &Cluster{
		Store:     store,
		Coord:     NewCoordinator(),
		readers:   map[string]*Reader{},
		readerCfg: readerCfg,
	}
	cl.writer = NewWriter(store, cl.Coord, writerCfg)
	for i := 0; i < nReaders; i++ {
		if _, err := cl.AddReader(); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// Writer returns the single writer instance.
func (cl *Cluster) Writer() *Writer { return cl.writer }

// AddReader elastically adds a reader instance (K8s scale-up, Sec. 5.3) and
// returns its ID.
func (cl *Cluster) AddReader() (string, error) {
	cl.mu.Lock()
	cl.nextID++
	id := fmt.Sprintf("reader-%d", cl.nextID)
	r := NewReader(id, cl.Store, cl.readerCfg)
	cl.readers[id] = r
	cl.mu.Unlock()
	if err := cl.Coord.RegisterReader(id); err != nil {
		return "", err
	}
	return id, nil
}

// CrashReader simulates a reader crash (the instance stays registered until
// a query notices, as in a real failure).
func (cl *Cluster) CrashReader(id string) error {
	cl.mu.Lock()
	r, ok := cl.readers[id]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: reader %q not found", id)
	}
	r.Crash()
	return nil
}

// Readers returns the live reader count.
func (cl *Cluster) Readers() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, r := range cl.readers {
		if r.Alive() {
			n++
		}
	}
	return n
}

// Reader returns a reader instance by ID (tests, stats).
func (cl *Cluster) Reader(id string) (*Reader, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	r, ok := cl.readers[id]
	return r, ok
}

// Search fans a top-k query out to every reader on the ring and merges the
// shard results. A dead reader is detected, deregistered (its shards
// redistribute), and the query retries — the availability path of Sec. 5.3.
func (cl *Cluster) Search(collection string, query []float32, opts core.SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return cl.SearchFilteredCtx(context.Background(), collection, query, opts, nil)
}

// SearchFilteredCtx is Search with cancellation and an attribute range
// pushed down to every reader (distributed attribute filtering). The
// per-reader fan-out runs as tasks on the shared execution pool: the
// router goroutine runs them itself, with idle workers helping, and waits
// only for tasks a worker has started, so a cluster query can never
// deadlock against collection-level queries sharing the pool.
func (cl *Cluster) SearchFilteredCtx(ctx context.Context, collection string, query []float32, opts core.SearchOptions, rf *RangeFilter) ([]topk.Result, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		version, err := cl.Coord.ManifestVersion(collection)
		if err != nil {
			return nil, err
		}
		ring, err := cl.Coord.Ring()
		if err != nil {
			return nil, err
		}
		members := ring.Members()
		if len(members) == 0 {
			return nil, fmt.Errorf("cluster: no readers available")
		}
		type shardResult struct {
			res []topk.Result
			err error
		}
		shards := make([]shardResult, len(members))
		if err := exec.Default().Map(ctx, len(members), func(i int) {
			id := members[i]
			cl.mu.Lock()
			r := cl.readers[id]
			cl.mu.Unlock()
			if r == nil {
				shards[i].err = fmt.Errorf("%w: reader %s gone", ErrReaderDown, id)
				return
			}
			shards[i].res, shards[i].err = r.SearchOwnedCtx(ctx, collection, version, ring, query, opts, rf)
		}); err != nil {
			return nil, err
		}
		var lists [][]topk.Result
		var failed []string
		var reqErr error
		for i, sr := range shards {
			switch {
			case sr.err == nil:
				lists = append(lists, sr.res)
			case errors.Is(sr.err, ErrReaderDown):
				failed = append(failed, members[i])
			default:
				// A request-level error (bad field, bad filter): surface it,
				// never treat the reader as dead.
				if reqErr == nil {
					reqErr = sr.err
				}
			}
		}
		if reqErr != nil {
			return nil, reqErr
		}
		if len(failed) == 0 {
			return topk.Merge(opts.K, lists...), nil
		}
		if attempt >= len(members) {
			return nil, fmt.Errorf("cluster: readers kept failing: %v", failed)
		}
		// Failover: drop dead readers from the ring and retry.
		for _, id := range failed {
			_ = cl.Coord.DeregisterReader(id)
		}
	}
}
