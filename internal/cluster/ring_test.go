package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// Property: consistent hashing only moves keys to/from the node being added
// or removed — never between unrelated survivors.
func TestRingMinimalMovementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ring := NewRing(64)
		nodes := []string{"n0", "n1", "n2", "n3", "n4"}
		for _, n := range nodes {
			ring = ring.Add(n)
		}
		keys := make([]string, 200)
		before := map[string]string{}
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d-%d", seed, i)
			before[keys[i]] = ring.Lookup(keys[i])
		}
		victim := nodes[r.Intn(len(nodes))]
		full := ring
		ring = ring.Remove(victim)
		for _, k := range keys {
			after := ring.Lookup(k)
			if before[k] != victim && after != before[k] {
				return false // unrelated key moved
			}
			if after == victim {
				return false // removed node still owns keys
			}
		}
		// Re-adding restores the original ownership exactly, and the ring
		// taken before the removal never stopped answering with it.
		ring = ring.Add(victim)
		for _, k := range keys {
			if ring.Lookup(k) != before[k] || full.Lookup(k) != before[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A ring is a value: Add and Remove leave the receiver as it was.
func TestRingImmutable(t *testing.T) {
	a := NewRing(32).Add("a")
	ab := a.Add("b")
	if a.Size() != 1 || ab.Size() != 2 {
		t.Fatalf("Add changed its receiver: %d/%d", a.Size(), ab.Size())
	}
	if a.Lookup("k") != "a" {
		t.Fatal("original ring changed")
	}
	if b := ab.Remove("a"); ab.Size() != 2 || b.Size() != 1 || b.Lookup("k") != "b" {
		t.Fatalf("Remove changed its receiver: %d/%d", ab.Size(), b.Size())
	}
	if ab.Add("a") != ab || a.Remove("zz") != a {
		t.Fatal("no-op membership change built a new ring")
	}
}

// TestCoordinatorRingSnapshot: a ring taken before a membership change
// still answers with the old membership — the coordinator replaces its
// ring copy-on-write instead of cloning one per query.
func TestCoordinatorRingSnapshot(t *testing.T) {
	c := NewCoordinator()
	for _, id := range []string{"r1", "r2"} {
		if err := c.RegisterReader(id); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := c.Ring()
	same, _ := c.Ring()
	if before != same {
		t.Fatal("Ring() copied an unchanged ring")
	}
	owners := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("seg/%d", i)
		owners[k] = before.Lookup(k)
	}
	if err := c.DeregisterReader("r2"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReader("r3"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.Ring()
	if got := fmt.Sprint(after.Members()); got != "[r1 r3]" {
		t.Fatalf("members after change = %s", got)
	}
	if got := fmt.Sprint(before.Members()); got != "[r1 r2]" {
		t.Fatalf("ring taken before the change now has members %s", got)
	}
	for k, o := range owners {
		if before.Lookup(k) != o {
			t.Fatalf("ring taken before the change moved %s from %s to %s", k, o, before.Lookup(k))
		}
	}
	// A revived replica shares the leader's ring and follows later changes.
	if err := c.KillLeader(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReader("r4"); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.Ring(); r.Size() != 3 || after.Size() != 2 {
		t.Fatalf("after failover: ring has %d members, earlier ring %d", r.Size(), after.Size())
	}
}

// Queries read the ring and the manifest version while membership and
// manifests change; under -race this holds the coordinator to doing both
// behind its lock.
func TestCoordinatorConcurrentReads(t *testing.T) {
	c := NewCoordinator()
	if err := c.RegisterReader("r0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ring, err := c.Ring()
				if err != nil || ring.Lookup("seg/1") == "" {
					t.Errorf("Ring() = %v members, %v", ring.Size(), err)
					return
				}
				if _, err := c.ManifestVersion("c"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = c.RegisterReader("r1")
		_, _ = c.BumpManifest("c")
		_ = c.DeregisterReader("r1")
	}
	wg.Wait()
}
