// Readers for immutable segment files, behind one tiny interface so
// the decode path is identical whether the bytes come from a mapping
// or a positional read.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/storage"
)

// blob is random access to a segment file's bytes.
type blob interface {
	// bytes returns the range [off, off+n). Implementations may return
	// a view of shared memory (mmap) or fill *scratch (pread); either
	// way the result is only valid until the next call with the same
	// scratch.
	bytes(off int64, n int, scratch *[]byte) ([]byte, error)
	// stable reports whether repeated bytes calls for the same range
	// return the same memory (mmap): true lets the reader cache
	// integrity checks per open segment instead of re-verifying every
	// fetch. pread blobs refill scratch from the file each time, so
	// each fetch could observe different bytes and must re-verify.
	stable() bool
	close() error
}

// preadBlob serves ranges with positional reads into caller scratch —
// the portable fallback, and the only resident state is the file handle.
type preadBlob struct{ f *os.File }

func (b preadBlob) bytes(off int64, n int, scratch *[]byte) ([]byte, error) {
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (b preadBlob) stable() bool { return false }

func (b preadBlob) close() error { return b.f.Close() }

// openBlob opens path with the preferred reader: mmap where supported
// (unless disabled), pread otherwise.
func openBlob(path string, noMmap bool) (blob, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	if !noMmap && size > 0 {
		if b, err := mmapBlob(f, size); err == nil {
			f.Close() // mapping outlives the descriptor
			return b, size, nil
		}
	}
	return preadBlob{f: f}, size, nil
}

// segment is one open, immutable, refcounted segment file. The store
// holds one reference; every snapshot holds one more, so compaction can
// drop (and unlink) a replaced segment without invalidating scans that
// are still reading it.
type segment struct {
	path string
	blob blob
	foot *footer
	refs atomic.Int32
	// verified caches per-section integrity checks for stable blobs:
	// segment files are immutable and an mmap view returns the same
	// memory on every fetch, so each section is checked on first use
	// (CRC, and for postings their content) and trusted for the rest of
	// the segment's open lifetime. nil for pread blobs, which re-check
	// every fetch. Indexed key columns first, then measures, then the
	// key columns' postings.
	verified []atomic.Bool
	// removeOnRelease unlinks the file once the last reference drops —
	// set when compaction replaces the segment.
	removeOnRelease atomic.Bool
}

// openSegment opens a segment file of either format version and
// validates its footer against the file.
func openSegment(path string, noMmap bool) (*segment, error) {
	b, size, err := openBlob(path, noMmap)
	if err != nil {
		return nil, err
	}
	return newSegment(path, b, size)
}

// newSegment takes ownership of an open blob of the given size.
func newSegment(path string, b blob, size int64) (*segment, error) {
	foot, err := readFooter(b, size)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &segment{path: path, blob: b, foot: foot}
	if b.stable() {
		s.verified = make([]atomic.Bool, 2*len(foot.keys)+len(foot.meas))
	}
	s.refs.Store(1)
	return s, nil
}

// readFooter reads the magic, trailer and footer of a segment blob.
func readFooter(b blob, size int64) (*footer, error) {
	if size < int64(len(segMagic))+8 {
		return nil, fmt.Errorf("colstore: segment too short (%d bytes)", size)
	}
	var scratch []byte
	head, err := b.bytes(0, len(segMagic), &scratch)
	if err != nil {
		return nil, err
	}
	version := 2
	switch string(head) {
	case string(segMagic):
	case string(segMagicV1):
		version = 1
	default:
		return nil, fmt.Errorf("colstore: not a segment file")
	}
	tail, err := b.bytes(size-8, 8, &scratch)
	if err != nil {
		return nil, err
	}
	if string(tail[4:]) != string(segTrail) {
		return nil, fmt.Errorf("colstore: bad segment trailer")
	}
	// footLen counts the body plus the 8-byte trailer (footerLen field
	// + magic); the body starts footLen bytes from the end.
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footLen < 8 || footLen > size-int64(len(segMagic)) {
		return nil, fmt.Errorf("colstore: implausible footer length %d", footLen)
	}
	body, err := b.bytes(size-footLen, int(footLen-8), &scratch)
	if err != nil {
		return nil, err
	}
	return parseFooter(body, version, size-footLen)
}

// section fetches one checksummed section and verifies it: the CRC,
// then check (when non-nil) on the clean bytes. idx is the section's
// slot in the verification cache.
func (s *segment) section(idx int, off, size int64, crc uint32, sc *storage.BlockScratch, check func([]byte) error) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	p, err := s.blob.bytes(off, int(size), &sc.Buf)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", s.path, err)
	}
	if s.verified != nil && s.verified[idx].Load() {
		return p, nil
	}
	if got := crc32.Checksum(p, castTable); got != crc {
		return nil, fmt.Errorf("colstore: %s: section checksum mismatch (corrupt segment)", s.path)
	}
	if check != nil {
		if err := check(p); err != nil {
			return nil, fmt.Errorf("%s: %w", s.path, err)
		}
	}
	if s.verified != nil {
		s.verified[idx].Store(true)
	}
	return p, nil
}

// keyPayload and measPayload fetch one column's encoded bytes.
func (s *segment) keyPayload(h int, sc *storage.BlockScratch) ([]byte, error) {
	km := &s.foot.keys[h]
	return s.section(h, km.off, km.size, km.crc, sc, nil)
}

func (s *segment) measPayload(m int, sc *storage.BlockScratch) ([]byte, error) {
	mm := &s.foot.meas[m]
	return s.section(len(s.foot.keys)+m, mm.off, mm.size, mm.crc, sc, nil)
}

// postings fetches key column h's postings section, validated.
func (s *segment) postings(h int, sc *storage.BlockScratch) (p postings, err error) {
	foot := s.foot
	pm := &foot.post[h]
	sec, err := s.section(len(foot.keys)+len(foot.meas)+h, pm.off, pm.size, pm.crc, sc,
		func(b []byte) error { return pm.validate(b, foot.rows) })
	if err != nil {
		return p, err
	}
	p.view(pm, int32(uint32(foot.keys[h].base)), sec)
	return p, nil
}

func (s *segment) acquire() { s.refs.Add(1) }

func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.blob.close()
		if s.removeOnRelease.Load() {
			os.Remove(s.path)
		}
	}
}

func (s *segment) diskBytes() int64 {
	st, err := os.Stat(s.path)
	if err != nil {
		return 0
	}
	return st.Size()
}
