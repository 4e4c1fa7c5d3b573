package cluster

import (
	"fmt"
	"slices"

	"vectordb/internal/wal"
)

// The tests drive a reader's restart, a coordinator replica's revival and
// deletes through the writer; nothing outside them does.

// RestartReader is the K8s replacement pod: same identity, cold cache.
func (cl *Cluster) RestartReader(id string) error {
	cl.mu.Lock()
	r, ok := cl.readers[id]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: reader %q not found", id)
	}
	r.Restart()
	return cl.Coord.RegisterReader(id) // idempotent
}

// Restart brings a crashed instance back with cold caches (as a K8s
// replacement pod would come up).
func (r *Reader) Restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alive = true
}

// ReviveReplica restarts a crashed replica, copying state from the leader.
func (c *Coordinator) ReviveReplica(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.replicas) {
		return fmt.Errorf("cluster: no replica %d", i)
	}
	if c.alive[i] {
		return nil
	}
	c.replicas[i] = c.replicas[c.leader].clone()
	c.alive[i] = true
	return nil
}

// Delete ships the IDs as one WAL frame and applies it locally.
func (w *Writer) Delete(collection string, ids []int64) error {
	return w.write(collection, &wal.Batch{Kind: wal.Delete, IDs: slices.Clone(ids)})
}
