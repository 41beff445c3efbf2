// Bulk loading: a streaming writer that builds a store directory from
// blocks of rows without ever holding more than one segment's rows in
// memory, so generating SSB100 is out-of-core end to end. Rows bypass
// the WAL — each full buffer flushes straight to a segment file — and
// the manifest lands only at Close, so an interrupted bulk load leaves
// no half-valid store behind.
package colstore

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// BulkWriter streams rows into a new store directory.
type BulkWriter struct {
	dir    string
	schema *mdm.Schema
	opts   Options

	keys [][]int32
	meas [][]float64
	rows int // buffered, not yet flushed

	segs []manifestSeg
	seq  uint64
	err  error
}

// CreateBulk starts a bulk load into dir (created if missing; must not
// already hold a store). Close finalizes the directory.
func CreateBulk(dir string, s *mdm.Schema, opts Options) (*BulkWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if IsStoreDir(dir) {
		return nil, fmt.Errorf("colstore: %s already holds a store", dir)
	}
	if err := writeSchemaFile(filepath.Join(dir, schemaName), s); err != nil {
		return nil, err
	}
	w := &BulkWriter{
		dir:    dir,
		schema: s,
		opts:   opts.withDefaults(),
		keys:   make([][]int32, len(s.Hiers)),
		meas:   make([][]float64, len(s.Measures)),
		seq:    1,
	}
	for h := range w.keys {
		w.keys[h] = make([]int32, 0, w.opts.SegmentRows)
	}
	for m := range w.meas {
		w.meas[m] = make([]float64, 0, w.opts.SegmentRows)
	}
	return w, nil
}

// AppendBlock buffers a block of rows, one column per hierarchy and per
// measure, each b.Rows long; it flushes a segment each time the buffer
// fills, so a block may span segment boundaries. Keys are not checked
// against the dictionaries: the writer is fed from generated or stored
// tables whose keys already were.
func (w *BulkWriter) AppendBlock(b storage.BlockCols) error {
	if w.err != nil {
		return w.err
	}
	if len(b.Keys) != len(w.keys) || len(b.Meas) != len(w.meas) {
		return fmt.Errorf("colstore: bulk block has %d key and %d measure columns, want %d and %d",
			len(b.Keys), len(b.Meas), len(w.keys), len(w.meas))
	}
	for _, col := range b.Keys {
		if len(col) != b.Rows {
			return fmt.Errorf("colstore: bulk block of %d rows has a key column of %d", b.Rows, len(col))
		}
	}
	for _, col := range b.Meas {
		if len(col) != b.Rows {
			return fmt.Errorf("colstore: bulk block of %d rows has a measure column of %d", b.Rows, len(col))
		}
	}
	for lo := 0; lo < b.Rows; {
		hi := min(b.Rows, lo+w.opts.SegmentRows-w.rows)
		for h, col := range b.Keys {
			w.keys[h] = append(w.keys[h], col[lo:hi]...)
		}
		for m, col := range b.Meas {
			w.meas[m] = append(w.meas[m], col[lo:hi]...)
		}
		w.rows += hi - lo
		lo = hi
		if w.rows >= w.opts.SegmentRows {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows returns the total rows appended so far.
func (w *BulkWriter) Rows() int {
	n := w.rows
	for _, s := range w.segs {
		n += s.Rows
	}
	return n
}

func (w *BulkWriter) flush() error {
	if w.rows == 0 {
		return nil
	}
	name := segName(w.seq)
	if _, err := writeSegment(filepath.Join(w.dir, name), w.keys, w.meas, w.rows, levelMaps(w.schema.Hiers)); err != nil {
		w.err = err
		return err
	}
	w.segs = append(w.segs, manifestSeg{File: name, Rows: w.rows})
	w.seq++
	for h := range w.keys {
		w.keys[h] = w.keys[h][:0]
	}
	for m := range w.meas {
		w.meas[m] = w.meas[m][:0]
	}
	w.rows = 0
	return nil
}

// Close flushes the remainder and writes the WAL and manifest, making
// the directory a valid store.
func (w *BulkWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := writeWAL(filepath.Join(w.dir, walName), 1, nil); err != nil {
		w.err = err
		return err
	}
	man := manifest{FormatVersion: 1, Seq: w.seq, Segments: w.segs, WALEpoch: 1, WALSkip: 0}
	if err := writeManifestFile(w.dir, man); err != nil {
		w.err = err
		return err
	}
	w.err = fmt.Errorf("colstore: bulk writer is closed")
	return nil
}
