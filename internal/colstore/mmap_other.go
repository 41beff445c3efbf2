//go:build !linux && !darwin

package colstore

import (
	"errors"
	"os"
)

// walMaps is false: walLog writes each record in place.
const walMaps = false

// mmapBlob is unavailable; openBlob falls back to pread.
func mmapBlob(*os.File, int64) (blob, error) {
	return nil, errors.New("colstore: mmap not supported on this platform")
}

func mmapWindow(*os.File, int64, int) ([]byte, error) {
	return nil, errors.New("colstore: mmap not supported on this platform")
}

func munmapWindow([]byte) {}
