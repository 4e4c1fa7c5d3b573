//go:build unix

package colstore

import (
	"os"
	"syscall"
)

// maxMapSize bounds a single segment-file mapping; far above any real
// segment (MaxSegmentRows × dim × 4) but keeps int conversions safe.
const maxMapSize = 1 << 40

// mmapFile maps size bytes of f read-only and shared. The second result
// reports whether the bytes are a real mapping (true) or a heap copy.
func mmapFile(f *os.File, size int) ([]byte, bool, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func munmapFile(data []byte) error { return syscall.Munmap(data) }

func adviseSequential(b []byte) {
	if len(b) > 0 {
		_ = syscall.Madvise(b, syscall.MADV_SEQUENTIAL)
	}
}
