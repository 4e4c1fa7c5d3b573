package objstore

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
)

func storesUnderTest(t *testing.T) map[string]Store {
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"memory": NewMemory(),
		"fs":     fs,
		"s3sim":  NewS3Sim(0),
	}
}

func TestStoreContract(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if err := s.Put("seg/1", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("seg/2", []byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("other/3", []byte("x")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("seg/1")
			if err != nil || string(got) != "hello" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			keys, err := s.List("seg/")
			if err != nil || len(keys) != 2 || keys[0] != "seg/1" || keys[1] != "seg/2" {
				t.Fatalf("List = %v, %v", keys, err)
			}
			// Overwrite
			if err := s.Put("seg/1", []byte("hello2")); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get("seg/1")
			if string(got) != "hello2" {
				t.Fatalf("overwrite failed: %q", got)
			}
			// Delete idempotent
			if err := s.Delete("seg/1"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("seg/1"); err != nil {
				t.Fatalf("second delete: %v", err)
			}
			if _, err := s.Get("seg/1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key still readable: %v", err)
			}
		})
	}
}

// TestMemoryIsolation: a reader's writes to what Get returned never reach
// the stored object. (A Put's caller does not write data afterwards: the
// Store contract.)
func TestMemoryIsolation(t *testing.T) {
	m := NewMemory()
	m.Put("k", []byte{1, 2, 3})
	got, _ := m.Get("k")
	got[1] = 99 // reader mutation must not leak back
	got2, _ := m.Get("k")
	if got2[1] != 2 {
		t.Fatal("Get did not copy")
	}
}

// TestMemoryPutKeepsData: Put of a 1 MiB blob stores the caller's slice
// and allocates nothing.
func TestMemoryPutKeepsData(t *testing.T) {
	m := NewMemory()
	blob := make([]byte, 1<<20)
	m.Put("k", blob)
	if allocs := testing.AllocsPerRun(20, func() { m.Put("k", blob) }); allocs != 0 {
		t.Fatalf("Put of a 1 MiB blob made %v allocations, want 0", allocs)
	}
	m.mu.RLock()
	kept := m.data["k"]
	m.mu.RUnlock()
	if &kept[0] != &blob[0] {
		t.Fatal("Put stored a copy of the blob")
	}
}

func TestS3SimFailureInjection(t *testing.T) {
	s := NewS3Sim(0)
	s.Put("k", []byte("v"))
	s.FailNext(2)
	if _, err := s.Get("k"); !IsInjected(err) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if err := s.Put("k2", nil); !IsInjected(err) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatalf("failure persisted past budget: %v", err)
	}
	if s.Ops() != 4 {
		t.Fatalf("Ops = %d, want 4", s.Ops())
	}
}

func TestFSListSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.Put("a/b", []byte("1"))
	// A writer's temp file in flight, and one an older Put left behind.
	for _, name := range []string{"a/.b.123.tmp", "a/b.tmp"} {
		if err := os.WriteFile(dir+"/"+name, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := fs.List("")
	if err != nil || len(keys) != 1 || keys[0] != "a/b" {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

// TestFSConcurrentPutsOfOneKey: writers racing on one key never share a
// temp file. Every Get during and after the race returns one writer's
// whole payload, and no temp file survives.
func TestFSConcurrentPutsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 20
	payload := func(w int) []byte { // distinct length and content per writer
		return bytes.Repeat([]byte{byte('a' + w)}, 4096+1000*w)
	}
	whole := func(got []byte) bool {
		return len(got) > 0 && bytes.Equal(got, payload(int(got[0]-'a')))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := fs.Put("seg/k", payload(w)); err != nil {
					t.Error(err)
					return
				}
				got, err := fs.Get("seg/k")
				if err != nil || !whole(got) {
					t.Errorf("Get during the race: %d bytes, %v", len(got), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := fs.Get("seg/k")
	if err != nil || !whole(got) {
		t.Fatalf("Get after the race: %d bytes, %v", len(got), err)
	}
	ents, err := os.ReadDir(dir + "/seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "k" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only the object", names)
	}
	if keys, err := fs.List(""); err != nil || len(keys) != 1 || keys[0] != "seg/k" {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

// IsInjected reports whether err came from FailNext.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }
