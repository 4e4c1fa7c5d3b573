// Package cluster implements the distributed deployment of Sec. 5.3: a
// shared-storage architecture with compute/storage separation, a highly
// available coordinator layer (three replicas standing in for the
// Zookeeper-managed instances), a single writer, and elastically scalable
// readers over which data is sharded by consistent hashing. Computing
// instances are stateless: a crashed instance is replaced (as Kubernetes
// would) and rebuilds its state from shared storage; writer atomicity comes
// from replaying the write-ahead log shipped to shared storage.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes, mapping shard keys
// (segment keys) to node names (reader IDs). A Ring is immutable: Add and
// Remove return a new ring and leave the receiver answering with the
// membership it was built with, so the coordinator hands the current ring
// to every query without copying it and a query in flight keeps a
// consistent shard map across a membership change.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members []string    // sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates an empty ring with the given virtual-node count per
// member (default 64 when ≤ 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone clusters badly on short sequential keys; a splitmix64
	// finalizer gives the avalanche the ring needs for balance.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add returns the ring with node a member; r itself when it already is.
func (r *Ring) Add(node string) *Ring {
	if slices.Contains(r.members, node) {
		return r
	}
	c := &Ring{vnodes: r.vnodes, points: slices.Clone(r.points), members: append(slices.Clone(r.members), node)}
	for v := 0; v < r.vnodes; v++ {
		c.points = append(c.points, ringPoint{hash64(fmt.Sprintf("%s#%d", node, v)), node})
	}
	sort.Slice(c.points, func(i, j int) bool { return c.points[i].hash < c.points[j].hash })
	sort.Strings(c.members)
	return c
}

// Remove returns the ring without node; r itself when it is no member.
func (r *Ring) Remove(node string) *Ring {
	if !slices.Contains(r.members, node) {
		return r
	}
	return &Ring{
		vnodes:  r.vnodes,
		points:  slices.DeleteFunc(slices.Clone(r.points), func(p ringPoint) bool { return p.node == node }),
		members: slices.DeleteFunc(slices.Clone(r.members), func(m string) bool { return m == node }),
	}
}

// Lookup maps a key to its owning member ("" when the ring is empty).
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Members returns the member names, sorted (shared: do not modify).
func (r *Ring) Members() []string { return r.members }
