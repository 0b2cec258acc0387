//go:build linux

package graph

import (
	"os"
	"syscall"
)

// mmapRange maps [off, off+n) of f read-only and privately. off need
// not be page-aligned: the mapping starts at the containing page and
// view is sliced to exactly the requested range. mapping is what must
// eventually go to releaseMapping.
func mmapRange(f *os.File, off, n uint64) (mapping, view []byte, err error) {
	page := uint64(os.Getpagesize())
	base := off &^ (page - 1)
	length := off - base + n
	if length == 0 {
		return nil, nil, syscall.EINVAL
	}
	data, err := syscall.Mmap(int(f.Fd()), int64(base), int(length),
		syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return data, data[off-base : off-base+n], nil
}

// releaseMapping retires a range mapping: MADV_DONTNEED first so the
// kernel drops the resident pages immediately (the point of bounded
// residency — munmap alone leaves clean page-cache pages around), then
// the unmap. The madvise is advisory and its error ignored.
func releaseMapping(mapping []byte) error {
	syscall.Madvise(mapping, syscall.MADV_DONTNEED)
	return syscall.Munmap(mapping)
}
