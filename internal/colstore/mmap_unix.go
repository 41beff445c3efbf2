//go:build linux || darwin

package colstore

import (
	"os"
	"syscall"
)

// mapped is an mmap-backed blob: reads are plain slices of the mapping,
// so a scan's resident footprint is whatever the page cache keeps warm,
// not the file size. Unlinking a mapped file is safe on these platforms;
// the pages live until munmap.
type mapped struct{ data []byte }

func mmapBlob(f *os.File, size int64) (blob, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return mapped{data: data}, nil
}

func (m mapped) bytes(off int64, n int, _ *[]byte) ([]byte, error) {
	return m.data[off : off+int64(n)], nil
}

func (m mapped) stable() bool { return true }

func (m mapped) close() error { return syscall.Munmap(m.data) }

// walMaps reports that walLog can map its window.
const walMaps = true

// mmapWindow maps n bytes of f at off for reading and writing, shared
// with the page cache.
func mmapWindow(f *os.File, off int64, n int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func munmapWindow(b []byte) { syscall.Munmap(b) }
