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
// Replay tolerates a torn final record (partial write at crash): it
// stops at the first record whose length, bounds, or CRC is invalid.
package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

var walMagic = []byte("ASSESSWAL\x01")

const walHeaderLen = 10 + 8

// createWAL commits a fresh WAL at path seeded with the given
// pre-rendered records (through CommitFile, so replacing an existing log
// is atomic) and returns it reopened for appends.
func createWAL(path string, epoch uint64, records []byte) (*os.File, error) {
	err := CommitFile(path, func(w *bufio.Writer) error {
		w.Write(walMagic)
		w.Write(binary.LittleEndian.AppendUint64(nil, epoch))
		_, err := w.Write(records)
		return err
	})
	if err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}

// walRecord renders one append as a WAL record.
func walRecord(keys []int32, vals []float64) []byte {
	n := 4*len(keys) + 8*len(vals)
	rec := make([]byte, 4+n+4)
	binary.LittleEndian.PutUint32(rec, uint32(n))
	p := 4
	for _, k := range keys {
		binary.LittleEndian.PutUint32(rec[p:], uint32(k))
		p += 4
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(rec[p:], math.Float64bits(v))
		p += 8
	}
	binary.LittleEndian.PutUint32(rec[p:], crc32.Checksum(rec[4:p], castTable))
	return rec
}

// replayWAL reads path, returning its epoch, every intact record beyond
// the first skip ones (decoded through emit), and the byte length of
// the valid prefix. A torn or corrupt tail ends replay silently; the
// caller truncates to validLen so later appends extend the intact
// prefix rather than landing after unreadable bytes.
func replayWAL(path string, nkeys, nmeas, skip int, emit func(keys []int32, vals []float64)) (epoch uint64, count int, validLen int64, err error) {
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
			emit(keys, vals)
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
