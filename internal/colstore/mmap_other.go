//go:build !unix

package colstore

import (
	"io"
	"os"
)

const maxMapSize = 1 << 31

// mmapFile on platforms without mmap reads the whole file into memory.
// Residency then degrades gracefully: files are RAM copies, demotion
// still frees them, and all alignment guarantees hold trivially.
func mmapFile(f *os.File, size int) ([]byte, bool, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func munmapFile(data []byte) error { return nil }

func adviseSequential(b []byte) {}
