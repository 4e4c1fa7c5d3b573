package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"vectordb/internal/core"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/wal"
)

// Writer is the single writer instance of Fig. 5. It handles insertions,
// deletions and updates; it ships logs (not data) to shared storage before
// applying them locally — the Aurora-style optimization of Sec. 5.3 — and
// publishes a manifest after each flush. Because the instance is stateless,
// a crash loses nothing: Restart rebuilds from the manifests and replays
// the WAL tail.
type Writer struct {
	store objstore.Store
	coord *Coordinator

	// mu is an RWMutex so that read-side lookups (Collection, which serves
	// the standalone search path) never serialize behind ship+apply of a
	// write batch; mutations of the collection map and per-collection WAL
	// sequence take the write lock.
	mu    sync.RWMutex
	alive bool
	cols  map[string]*writerCollection
	cfg   core.Config

	shipped        *obs.Counter
	shippedRecords *obs.Counter
	replayedRecs   *obs.Counter
	tornBatches    *obs.Counter
}

type writerCollection struct {
	col *core.Collection
	seq int64 // last WAL sequence shipped
}

// NewWriter creates a live writer over shared storage.
func NewWriter(store objstore.Store, coord *Coordinator, cfg core.Config) *Writer {
	w := &Writer{store: store, coord: coord, cfg: cfg, alive: true, cols: map[string]*writerCollection{}}
	w.shipped = cfg.Obs.Counter("vectordb_wal_batches_shipped_total")
	w.shippedRecords = cfg.Obs.Counter("vectordb_wal_shipped_records_total")
	w.replayedRecs = cfg.Obs.Counter("vectordb_wal_replayed_records_total")
	w.tornBatches = cfg.Obs.Counter("vectordb_wal_torn_batches_total")
	return w
}

func (w *Writer) get(collection string) (*writerCollection, error) {
	if !w.alive {
		return nil, fmt.Errorf("cluster: writer is down")
	}
	wc, ok := w.cols[collection]
	if !ok {
		return nil, fmt.Errorf("cluster: collection %q does not exist", collection)
	}
	return wc, nil
}

// CreateCollection registers a collection and publishes its first manifest.
func (w *Writer) CreateCollection(name string, schema core.Schema) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.alive {
		return fmt.Errorf("cluster: writer is down")
	}
	if _, dup := w.cols[name]; dup {
		return fmt.Errorf("cluster: collection %q already exists", name)
	}
	col, err := core.NewCollection(name, schema, w.store, w.cfg)
	if err != nil {
		return err
	}
	w.cols[name] = &writerCollection{col: col}
	return w.publishLocked(name)
}

// Insert checks entities against the collection's schema, ships them as
// one WAL frame and applies that batch locally.
func (w *Writer) Insert(collection string, entities []core.Entity) error {
	b, err := core.Columns(entities)
	if err != nil {
		return err
	}
	return w.write(collection, b)
}

// write ships b to shared storage as the next WAL object, one frame, and
// applies the same batch locally. An insert is checked against the schema
// before it ships, so the WAL holds no batch that replay would refuse.
func (w *Writer) write(collection string, b *wal.Batch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	wc, err := w.get(collection)
	if err != nil {
		return err
	}
	if b.Kind == wal.Insert {
		if err := wc.col.Schema().CheckBatch(b); err != nil {
			return err
		}
	}
	frame, err := wal.AppendFrame(nil, b)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := w.store.Put(walKey(collection, wc.seq+1), frame); err != nil {
		return fmt.Errorf("cluster: ship wal: %w", err)
	}
	wc.seq++
	w.shipped.Inc()
	w.shippedRecords.Add(int64(b.Rows()))
	return apply(wc.col, b)
}

// apply hands a batch to the collection's log.
func apply(col *core.Collection, b *wal.Batch) error {
	if b.Kind == wal.Delete {
		return col.Delete(b.IDs)
	}
	return col.InsertBatch(b)
}

// Flush makes all shipped writes visible and publishes the manifest.
func (w *Writer) Flush(collection string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	wc, err := w.get(collection)
	if err != nil {
		return err
	}
	//lint:allow lockdiscipline w.mu must keep Flush and manifest publish atomic: a manifest whose AppliedSeq ran ahead of its segments would make recovery skip WAL replay
	if err := wc.col.Flush(); err != nil {
		return err
	}
	return w.publishLocked(collection)
}

func (w *Writer) publishLocked(collection string) error {
	wc := w.cols[collection]
	m := &Manifest{
		Collection:  collection,
		Schema:      SchemaToJSON(wc.col.Schema()),
		SegmentKeys: wc.col.SegmentKeys(),
		AppliedSeq:  wc.seq,
	}
	for id, seq := range wc.col.Tombstones() {
		m.Tombstones = append(m.Tombstones, TombstoneJSON{ID: id, Seq: seq})
	}
	sort.Slice(m.Tombstones, func(i, j int) bool { return m.Tombstones[i].ID < m.Tombstones[j].ID })
	if err := PublishManifest(w.store, w.coord, m); err != nil {
		return err
	}
	// WAL entries covered by the manifest are obsolete; trim them.
	keys, err := w.store.List(fmt.Sprintf("wal/%s/", collection))
	if err != nil {
		return nil // trimming is best-effort
	}
	for _, k := range keys {
		if seq, err := walSeqFromKey(collection, k); err == nil && seq <= m.AppliedSeq {
			_ = w.store.Delete(k)
		}
	}
	return nil
}

// Collection exposes the writer's local collection (same-process reads in
// the standalone deployment). Read lock only: searches must not serialize
// behind in-flight write batches.
func (w *Writer) Collection(name string) (*core.Collection, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	wc, err := w.get(name)
	if err != nil {
		return nil, err
	}
	return wc.col, nil
}

// Crash simulates a process crash: all buffered (unflushed) state dies.
func (w *Writer) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, wc := range w.cols {
		wc.col.Abandon()
	}
	w.cols = map[string]*writerCollection{}
	w.alive = false
}

// Restart rebuilds the writer from shared storage: manifests restore
// flushed segments, and the WAL tail past each manifest's watermark is
// replayed — the atomicity guarantee of Sec. 5.3.
func (w *Writer) Restart() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.alive {
		return fmt.Errorf("cluster: writer already running")
	}
	manifests, err := w.store.List("manifest/")
	if err != nil {
		return err
	}
	w.cols = map[string]*writerCollection{}
	for _, mk := range manifests {
		name := mk[len("manifest/"):]
		m, err := LoadManifest(w.store, name)
		if err != nil {
			return err
		}
		schema, err := m.Schema.ToSchema()
		if err != nil {
			return err
		}
		//lint:allow lockdiscipline recovery runs before the writer serves; holding w.mu until state is rebuilt is the point
		col, err := core.RestoreCollection(name, schema, w.store, w.cfg, m.SegmentKeys, m.TombstonesToMap())
		if err != nil {
			return err
		}
		wc := &writerCollection{col: col, seq: m.AppliedSeq}
		// Replay the WAL tail.
		walKeys, err := w.store.List(fmt.Sprintf("wal/%s/", name))
		if err != nil {
			return err
		}
		sort.Strings(walKeys)
		for _, k := range walKeys {
			seq, err := walSeqFromKey(name, k)
			if err != nil || seq <= m.AppliedSeq {
				continue
			}
			blob, err := w.store.Get(k)
			if err != nil {
				return err
			}
			batches, err := wal.Replay(blob)
			if err != nil {
				if !errors.Is(err, wal.ErrTorn) {
					return err
				}
				// A torn frame means the shipping Put died mid-write, so
				// its batch was never acknowledged; replay the whole
				// frames before it and move on.
				w.tornBatches.Inc()
			}
			for _, b := range batches {
				w.replayedRecs.Add(int64(b.Rows()))
				if err := apply(col, b); err != nil {
					return err
				}
			}
			if seq > wc.seq {
				wc.seq = seq
			}
		}
		w.cols[name] = wc
	}
	w.alive = true
	// Make replayed writes visible and republish.
	for name := range w.cols {
		//lint:allow lockdiscipline recovery runs before the writer serves; holding w.mu until replayed state is published is the point
		if err := w.cols[name].col.Flush(); err != nil {
			return err
		}
		if err := w.publishLocked(name); err != nil {
			return err
		}
	}
	return nil
}
