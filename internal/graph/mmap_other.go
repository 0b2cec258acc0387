//go:build !linux

package graph

import (
	"errors"
	"os"
)

// errMmapUnsupported routes MapShard to its pread-copy fallback on
// platforms where the mmap fast path is not wired up.
var errMmapUnsupported = errors.New("mmap unsupported on this platform")

func mmapRange(f *os.File, off, n uint64) (mapping, view []byte, err error) {
	return nil, nil, errMmapUnsupported
}

func releaseMapping(mapping []byte) error { return nil }
