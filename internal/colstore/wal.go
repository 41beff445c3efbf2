// Write-ahead log for row appends. Appends land in the WAL before they
// are visible to snapshots; compaction folds the WAL tail into segments
// and rotates to a fresh log. Epoch numbers make the rotation
// crash-safe: the manifest records which epoch its walSkip count refers
// to, so a crash between "new WAL renamed in" and "manifest updated"
// is detected (epoch mismatch ⇒ skip nothing).
//
//	"ASSESSWAL\x01"  u64 epoch
//	records: u32 len | len bytes (nkeys × i32, nmeas × f64, LE) | u32 crc
//
// Replay tolerates a torn tail (a partial record, or a mapped log's
// zeros): it stops at the first record whose length, bounds, or CRC is
// invalid. A record that passes those checks is not torn, so a key in it
// that the store's dictionaries do not hold fails the replay.
package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime/debug"
)

var walMagic = []byte("ASSESSWAL\x01")

const walHeaderLen = 10 + 8

// walWindow is the length of wal.log's mapped window, and of the
// zeros a slide writes ahead of it.
const walWindow = 1 << 20

var walZeros [walWindow]byte

// writeWAL commits a fresh WAL at path seeded with the given
// pre-rendered records (through CommitFile, so replacing an existing log
// is atomic).
func writeWAL(path string, epoch uint64, records []byte) error {
	return CommitFile(path, func(w *bufio.Writer) error {
		w.Write(walMagic)
		w.Write(binary.LittleEndian.AppendUint64(nil, epoch))
		_, err := w.Write(records)
		return err
	})
}

// walLog appends records to wal.log by copying each into a MAP_SHARED
// mapping of the file's last window: when the copy returns the record is
// in the page cache, as after write(2), without the system call. A slide
// zero-fills the file to the next window's end first, so a full disk
// fails that append rather than a store into the mapping; replay stops
// at the zeros a killed process leaves. A fault on the mapping fails the
// append and, sticky, every later one: no row lands past a gap. Without
// a mapping each record is one positional write at end, which overwrites
// whatever a failed write left there.
type walLog struct {
	f      *os.File
	end    int64  // length of the intact records: the next one goes here
	size   int64  // file length; [end, size) is zeros
	win    []byte // mapping of the file at off, nil when unmapped
	off    int64
	mapped bool   // false: positional writes only
	buf    []byte // a positional write's record
	err    error  // the fault that stopped the log
}

// openWAL opens the log at path for appends after its last byte.
func openWAL(path string, mapped bool) (*walLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walLog{f: f, end: fi.Size(), size: fi.Size(), mapped: mapped}, nil
}

// append writes one row's record at end.
func (l *walLog) append(keys []int32, vals []float64) error {
	if l.err != nil {
		return l.err
	}
	n := int64(8 + 4*len(keys) + 8*len(vals))
	if l.mapped && l.end+n > l.off+int64(len(l.win)) {
		if err := l.slide(n); err != nil {
			return fmt.Errorf("colstore: wal append: %w", err)
		}
	}
	if l.win == nil {
		l.buf = appendRecord(l.buf[:0], keys, vals)
		if _, err := l.f.WriteAt(l.buf, l.end); err != nil {
			return fmt.Errorf("colstore: wal append: %w", err)
		}
		l.size = max(l.size, l.end+n)
	} else if err := l.store(keys, vals); err != nil {
		l.err = err
		return err
	}
	l.end += n
	return nil
}

// slide replaces the window with the page-aligned one holding end,
// zero-filling the file to that window's end first. A record longer than
// a window, or a mapping the platform refuses, leaves no window: the
// record is then written in place, the latter for good.
func (l *walLog) slide(n int64) error {
	l.unmap()
	off := l.end &^ int64(os.Getpagesize()-1)
	if l.end+n > off+walWindow {
		return nil
	}
	if fill := off + walWindow - l.size; fill > 0 {
		if _, err := l.f.WriteAt(walZeros[:fill], l.size); err != nil {
			return err
		}
		l.size += fill
	}
	win, err := mmapWindow(l.f, off, walWindow)
	if err != nil {
		l.mapped = false
		return nil
	}
	l.win, l.off = win, off
	return nil
}

// store encodes the record into the window at end. A fault on the
// mapping is returned as an error instead of killing the process.
func (l *walLog) store(keys []int32, vals []float64) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("colstore: wal append: fault on the mapped log: %v", r)
		}
	}()
	p := l.end - l.off
	appendRecord(l.win[p:p], keys, vals)
	return nil
}

func (l *walLog) unmap() {
	if l.win != nil {
		munmapWindow(l.win)
		l.win = nil
	}
}

// close unmaps the window, cuts the zero tail, fsyncs when sync is set
// and closes the file.
func (l *walLog) close(sync bool) error {
	l.unmap()
	err := l.f.Truncate(l.end)
	if sync && err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendRecord appends one row's WAL record to dst.
func appendRecord(dst []byte, keys []int32, vals []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(4*len(keys)+8*len(vals)))
	p := len(dst)
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[p:], castTable))
}

// replayWAL reads path, returning its epoch, every intact record beyond
// the first skip ones (decoded through emit), and the byte length of
// the valid prefix. A torn or corrupt tail ends replay silently; the
// caller truncates to validLen so later appends extend the intact
// prefix rather than landing after unreadable bytes. An error from emit
// ends replay with that error.
func replayWAL(path string, nkeys, nmeas, skip int, emit func(keys []int32, vals []float64) error) (epoch uint64, count int, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(data) < walHeaderLen || string(data[:10]) != string(walMagic) {
		return 0, 0, 0, fmt.Errorf("colstore: %s is not a WAL", path)
	}
	epoch = binary.LittleEndian.Uint64(data[10:])
	want := 4*nkeys + 8*nmeas
	keys := make([]int32, nkeys)
	vals := make([]float64, nmeas)
	pos := walHeaderLen
	for pos+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if n != want || pos+4+n+4 > len(data) {
			break // torn or foreign tail
		}
		payload := data[pos+4 : pos+4+n]
		crc := binary.LittleEndian.Uint32(data[pos+4+n:])
		if crc32.Checksum(payload, castTable) != crc {
			break
		}
		if count >= skip {
			p := 0
			for i := range keys {
				keys[i] = int32(binary.LittleEndian.Uint32(payload[p:]))
				p += 4
			}
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[p:]))
				p += 8
			}
			if err := emit(keys, vals); err != nil {
				return 0, 0, 0, err
			}
		}
		count++
		pos += 4 + n + 4
	}
	return epoch, count, int64(pos), nil
}

// walEpochOf reads just the epoch header of a WAL file.
func walEpochOf(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, err
	}
	if string(hdr[:10]) != string(walMagic) {
		return 0, fmt.Errorf("colstore: %s is not a WAL", path)
	}
	return binary.LittleEndian.Uint64(hdr[10:]), nil
}
