// Package objstore provides the multi-storage abstraction of Sec. 2.4: the
// segment files behind a Milvus deployment can live on a local file system,
// Amazon S3, or HDFS. Here the backends are an in-memory map, a local
// directory, and a simulated S3 service (in-memory plus per-operation
// latency and injectable failures) standing in for the real cloud store.
package objstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("objstore: key not found")

// Store is a flat key → bytes object store.
type Store interface {
	// Put stores data under key. A store may keep data itself rather
	// than a copy, so the caller must not write data after Put returns.
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	List(prefix string) ([]string, error)
}

// Memory is a map-backed store, safe for concurrent use.
type Memory struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemory creates an empty in-memory store.
func NewMemory() *Memory { return &Memory{data: map[string][]byte{}} }

// Put implements Store. It keeps data, not a copy.
func (m *Memory) Put(key string, data []byte) error {
	m.mu.Lock()
	m.data[key] = data
	m.mu.Unlock()
	return nil
}

// Get implements Store with a copy, which the caller owns.
func (m *Memory) Get(key string) ([]byte, error) {
	m.mu.RLock()
	d, ok := m.data[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), d...), nil
}

// Delete implements Store (idempotent).
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	delete(m.data, key)
	m.mu.Unlock()
	return nil
}

// List implements Store; keys are returned sorted.
func (m *Memory) List(prefix string) ([]string, error) {
	m.mu.RLock()
	var out []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// FS stores objects as files under a root directory, mapping "/" in keys to
// subdirectories.
type FS struct {
	root string
}

// NewFS creates (if necessary) and wraps a directory.
func NewFS(root string) (*FS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &FS{root: root}, nil
}

func (f *FS) path(key string) string { return filepath.Join(f.root, filepath.FromSlash(key)) }

// tmpSuffix ends every temp file Put writes; List skips such names.
const tmpSuffix = ".tmp"

// Put implements Store durably. The data goes to a temp file of its own in
// the key's directory, which is fsynced, renamed over the key, and then the
// directory is fsynced: a reader sees the old object or the whole new one,
// concurrent Puts of one key never write the same file, and a Put that
// returned survives a crash.
func (f *FS) Put(key string, data []byte) error {
	p := f.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("objstore: mkdir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(p)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("objstore: create: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's 0600 would narrow the old mode
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("objstore: write: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("objstore: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("objstore: sync dir: %w", err)
	}
	return nil
}

// Get implements Store.
func (f *FS) Get(key string) ([]byte, error) {
	d, err := os.ReadFile(f.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("objstore: read: %w", err)
	}
	return d, nil
}

// Delete implements Store (idempotent).
func (f *FS) Delete(key string) error {
	err := os.Remove(f.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("objstore: delete: %w", err)
	}
	return nil
}

// List implements Store. Put's temp files are not keys.
func (f *FS) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.Walk(f.root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasSuffix(p, tmpSuffix) {
			return err
		}
		rel, err := filepath.Rel(f.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("objstore: list: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// S3Sim models a remote object service: an in-memory store charged with
// per-operation latency, plus a fault hook for availability testing. The
// distributed layer (Sec. 5.3) uses it as the shared storage.
type S3Sim struct {
	inner *Memory
	// OpLatency is slept on every operation (default 1 ms ≈ same-region S3
	// round trip at small object sizes).
	OpLatency time.Duration
	mu        sync.Mutex
	failNext  int
	ops       int64
}

// NewS3Sim creates a simulated S3 with the given per-op latency.
func NewS3Sim(latency time.Duration) *S3Sim {
	if latency < 0 {
		latency = 0
	}
	return &S3Sim{inner: NewMemory(), OpLatency: latency}
}

// FailNext makes the next n operations return an injected error.
//
//lint:allow testonly the cluster's tests inject a store fault through it
func (s *S3Sim) FailNext(n int) {
	s.mu.Lock()
	s.failNext = n
	s.mu.Unlock()
}

// Ops returns the number of operations served (failed ones included).
func (s *S3Sim) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

var errInjected = errors.New("objstore: injected S3 failure")

func (s *S3Sim) before() error {
	s.mu.Lock()
	s.ops++
	fail := s.failNext > 0
	if fail {
		s.failNext--
	}
	s.mu.Unlock()
	if s.OpLatency > 0 {
		time.Sleep(s.OpLatency)
	}
	if fail {
		return errInjected
	}
	return nil
}

// Put implements Store.
func (s *S3Sim) Put(key string, data []byte) error {
	if err := s.before(); err != nil {
		return err
	}
	return s.inner.Put(key, data)
}

// Get implements Store.
func (s *S3Sim) Get(key string) ([]byte, error) {
	if err := s.before(); err != nil {
		return nil, err
	}
	return s.inner.Get(key)
}

// Delete implements Store.
func (s *S3Sim) Delete(key string) error {
	if err := s.before(); err != nil {
		return err
	}
	return s.inner.Delete(key)
}

// List implements Store.
func (s *S3Sim) List(prefix string) ([]string, error) {
	if err := s.before(); err != nil {
		return nil, err
	}
	return s.inner.List(prefix)
}
