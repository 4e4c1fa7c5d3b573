package cluster

import (
	"fmt"
	"sync"
)

// coordState is the replicated metadata of the coordinator layer: reader
// membership (the sharding ring) and per-collection manifest versions.
type coordState struct {
	ring        *Ring
	manifestVer map[string]int64
}

func newCoordState(vnodes int) *coordState {
	return &coordState{ring: NewRing(vnodes), manifestVer: map[string]int64{}}
}

func (s *coordState) clone() *coordState {
	c := &coordState{ring: s.ring, manifestVer: map[string]int64{}} // rings are immutable
	for k, v := range s.manifestVer {
		c.manifestVer[k] = v
	}
	return c
}

// Coordinator is the metadata layer of Fig. 5: it maintains sharding and
// load-balancing information. It is highly available with three replicas;
// every update applies to all live replicas synchronously (the
// Zookeeper-managed ensemble of the paper), so killing the leader loses
// nothing.
type Coordinator struct {
	mu       sync.Mutex
	replicas []*coordState
	alive    []bool
	leader   int
}

// NewCoordinator creates the three-replica ensemble.
func NewCoordinator() *Coordinator {
	c := &Coordinator{}
	for i := 0; i < 3; i++ {
		c.replicas = append(c.replicas, newCoordState(64))
		c.alive = append(c.alive, true)
	}
	return c
}

// KillLeader crashes the leader replica; a live standby is promoted.
// Returns an error when no replica remains.
func (c *Coordinator) KillLeader() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[c.leader] = false
	for i, a := range c.alive {
		if a {
			c.leader = i
			return nil
		}
	}
	return fmt.Errorf("cluster: coordinator lost all replicas")
}

// AliveReplicas counts live replicas.
func (c *Coordinator) AliveReplicas() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// update applies fn to every live replica (synchronous replication).
func (c *Coordinator) update(fn func(*coordState)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[c.leader] {
		return fmt.Errorf("cluster: coordinator unavailable")
	}
	for i, s := range c.replicas {
		if c.alive[i] {
			fn(s)
		}
	}
	return nil
}

// read returns the leader's state; the caller holds c.mu for as long as it
// looks at it (update replaces the ring and writes the version map under
// the same lock).
func (c *Coordinator) read() (*coordState, error) {
	if !c.alive[c.leader] {
		return nil, fmt.Errorf("cluster: coordinator unavailable")
	}
	return c.replicas[c.leader], nil
}

// RegisterReader adds a reader to the sharding ring.
func (c *Coordinator) RegisterReader(id string) error {
	return c.update(func(s *coordState) { s.ring = s.ring.Add(id) })
}

// DeregisterReader removes a reader from the sharding ring.
func (c *Coordinator) DeregisterReader(id string) error {
	return c.update(func(s *coordState) { s.ring = s.ring.Remove(id) })
}

// Ring returns the current sharding ring. Rings are immutable — membership
// changes install a new one — so the result keeps answering with the
// membership it was taken under.
func (c *Coordinator) Ring() (*Ring, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.read()
	if err != nil {
		return nil, err
	}
	return s.ring, nil
}

// Readers lists the registered readers.
func (c *Coordinator) Readers() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.read()
	if err != nil {
		return nil, err
	}
	return s.ring.Members(), nil
}

// BumpManifest advances a collection's manifest version (writer publishes).
func (c *Coordinator) BumpManifest(collection string) (int64, error) {
	var v int64
	err := c.update(func(s *coordState) {
		s.manifestVer[collection]++
		v = s.manifestVer[collection]
	})
	return v, err
}

// ManifestVersion reads a collection's manifest version.
func (c *Coordinator) ManifestVersion(collection string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.read()
	if err != nil {
		return 0, err
	}
	return s.manifestVer[collection], nil
}
