// Package colstore is the disk-resident backend for fact tables: a
// directory of immutable compressed columnar segments plus a write-ahead
// log for the mutable tail. It implements storage.SegmentBackend, so a
// cube opened from a store directory answers the same queries as a
// resident cube, bit-exact, while keeping only the WAL tail and
// per-scan decode buffers in memory. Zone maps in each segment footer
// let selective scans skip whole segments before decode.
//
// Directory layout:
//
//	schema.bin    "ASSESSSCH\x01" + schemaio schema
//	MANIFEST      JSON: segment list, WAL epoch + fold progress
//	seg-NNNNNN.seg immutable segments (see segment.go)
//	wal.log       append log for the tail (see wal.go)
//
// Appends go WAL-first, then into resident tail columns; snapshots see
// segments + tail in append order, which keeps scan results identical
// to the resident backend. Compaction folds the tail into new segments
// and merges runts, without ever changing the logical row sequence.
package colstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/schemaio"
	"github.com/assess-olap/assess/internal/storage"
)

var schemaMagic = []byte("ASSESSSCH\x01")

const (
	manifestName = "MANIFEST"
	schemaName   = "schema.bin"
	walName      = "wal.log"
)

// Options tune a store; the zero value is sensible.
type Options struct {
	// SegmentRows is the target rows per segment (default 1<<18).
	SegmentRows int
	// AutoCompactRows folds the WAL tail into a segment once it holds
	// this many rows (0 defaults to SegmentRows; negative disables
	// background folds entirely — Compact still works).
	AutoCompactRows int
}

// gatherCutoff is the selectivity at or below which a selection
// gather-decodes the needed key and measure columns (selected rows
// only) instead of decoding them whole and compacting them. Measured,
// not tuned per store: see docs/storage.md (BenchmarkGatherCutoff).
const gatherCutoff = 0.5

func (o Options) withDefaults() Options {
	if o.SegmentRows <= 0 {
		o.SegmentRows = 1 << 18
	}
	if o.AutoCompactRows == 0 {
		o.AutoCompactRows = o.SegmentRows
	}
	return o
}

// manifest is the JSON root pointer of a store directory.
type manifest struct {
	FormatVersion int           `json:"formatVersion"`
	Seq           uint64        `json:"seq"` // next segment file number
	Segments      []manifestSeg `json:"segments"`
	WALEpoch      uint64        `json:"walEpoch"`
	WALSkip       int           `json:"walSkip"`
}

type manifestSeg struct {
	File string `json:"file"`
	Rows int    `json:"rows"`
}

// Store is an open segment store. It satisfies storage.SegmentBackend.
type Store struct {
	dir    string
	schema *mdm.Schema
	opts   Options
	// gatherCutoff is the package constant; a field so tests can switch
	// gather decode off.
	gatherCutoff float64
	// walMapped is walMaps, whether a log opened for this store maps
	// its window; a field so tests can force positional writes.
	walMapped bool
	// noMmap reads segments with pread even where mmap is available, and
	// eager turns late materialization off: snapshots prune segments by
	// zone map only, with no code-space row filtering or selective
	// decode. Both are false in production; fields so tests can compare
	// the paths (export_test.go).
	noMmap, eager bool

	// appendMu serializes appends with each other and with the WAL
	// rotation, so the WAL write — a copy into the mapped log, or a
	// positional write — happens outside mu and a snapshot never waits
	// behind it. wal and closed change only with both held; appendMu is
	// taken first.
	appendMu sync.Mutex
	mu       sync.Mutex
	segs     []*segment
	segRows  int
	tailKeys [][]int32
	tailMeas [][]float64
	tailRows int
	wal      *walLog
	walEpoch uint64
	walSkip  int // records at the head of wal.log already folded
	seq      uint64
	closed   bool
	// ruMaps are the hierarchies' levelMaps as of the last dictionary
	// growth an appended row showed (written with appendMu and mu both
	// held): what folds and merges roll zone maps up through, and the
	// base-level cardinalities schema.bin records.
	ruMaps [][][]int32

	// compactMu serializes compaction passes; compacting keeps Append
	// from piling up background goroutines behind a running pass.
	compactMu   sync.Mutex
	compacting  atomic.Bool
	compactions atomic.Int64
	wg          sync.WaitGroup
}

var _ storage.SegmentBackend = (*Store)(nil)

// IsStoreDir reports whether dir looks like a segment store (has a
// manifest).
func IsStoreDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initializes an empty store in dir (created if missing; must
// not already contain a manifest).
func Create(dir string, s *mdm.Schema, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if IsStoreDir(dir) {
		return nil, fmt.Errorf("colstore: %s already holds a store", dir)
	}
	if err := writeSchemaFile(filepath.Join(dir, schemaName), s); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walName)
	if err := writeWAL(walPath, 1, nil); err != nil {
		return nil, err
	}
	st := newStore(dir, s, opts)
	wal, err := openWAL(walPath, st.walMapped)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	st.walEpoch = 1
	st.seq = 1
	if err := st.writeManifest(); err != nil {
		wal.close(false)
		return nil, err
	}
	return st, nil
}

// Open opens an existing store directory, replaying the WAL tail.
func Open(dir string, opts Options) (*Store, error) { return open(dir, opts, false) }

// open is Open, reading segments with pread when noMmap is set.
func open(dir string, opts Options, noMmap bool) (*Store, error) {
	s, err := readSchemaFile(filepath.Join(dir, schemaName))
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("colstore: bad manifest in %s: %w", dir, err)
	}
	if man.FormatVersion != 1 {
		return nil, fmt.Errorf("colstore: unsupported store format %d", man.FormatVersion)
	}
	for _, ms := range man.Segments {
		if filepath.Base(ms.File) != ms.File || !strings.HasSuffix(ms.File, ".seg") {
			return nil, fmt.Errorf("colstore: bad manifest in %s: segment %q is not a segment file name", dir, ms.File)
		}
	}
	cleanOrphans(dir, man)
	st := newStore(dir, s, opts)
	st.noMmap = noMmap
	st.seq = man.Seq
	for _, ms := range man.Segments {
		seg, err := openSegment(filepath.Join(dir, ms.File), st.noMmap)
		if err != nil {
			st.closeSegs()
			return nil, err
		}
		if seg.foot.rows != ms.Rows {
			st.closeSegs()
			seg.release()
			return nil, fmt.Errorf("colstore: %s: manifest says %d rows, footer says %d", ms.File, ms.Rows, seg.foot.rows)
		}
		if len(seg.foot.keys) != len(s.Hiers) || len(seg.foot.meas) != len(s.Measures) {
			st.closeSegs()
			seg.release()
			return nil, fmt.Errorf("colstore: %s: %d key and %d measure columns do not match the schema", ms.File, len(seg.foot.keys), len(seg.foot.meas))
		}
		st.segs = append(st.segs, seg)
		st.segRows += seg.foot.rows
	}
	walPath := filepath.Join(dir, walName)
	skip := man.WALSkip
	if epoch, err := walEpochOf(walPath); err == nil && epoch != man.WALEpoch {
		// Crash between WAL rotation and the manifest update that
		// acknowledges it: the new log already excludes folded rows.
		skip = 0
		st.walEpoch = epoch
	} else if err != nil {
		st.closeSegs()
		return nil, err
	} else {
		st.walEpoch = epoch
	}
	epoch, _, validLen, err := replayWAL(walPath, len(s.Hiers), len(s.Measures), skip, func(keys []int32, vals []float64) error {
		for h, k := range keys {
			if err := checkKey(s.Hiers[h], k); err != nil {
				return fmt.Errorf("colstore: %s: %w", walPath, err)
			}
		}
		st.tailAppend(keys, vals)
		return nil
	})
	if err != nil {
		st.closeSegs()
		return nil, err
	}
	st.walEpoch = epoch
	st.walSkip = skip
	// Drop any torn tail (partial record from a crash mid-append) so
	// new appends extend the intact prefix.
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > validLen {
		if err := os.Truncate(walPath, validLen); err != nil {
			st.closeSegs()
			return nil, err
		}
	}
	wal, err := openWAL(walPath, st.walMapped)
	if err != nil {
		st.closeSegs()
		return nil, err
	}
	st.wal = wal
	return st, nil
}

func newStore(dir string, s *mdm.Schema, opts Options) *Store {
	st := &Store{
		dir:      dir,
		schema:   s,
		opts:     opts.withDefaults(),
		tailKeys: make([][]int32, len(s.Hiers)),
		tailMeas: make([][]float64, len(s.Measures)),
		ruMaps:   levelMaps(s.Hiers),

		gatherCutoff: gatherCutoff,
		walMapped:    walMaps,
	}
	return st
}

// Schema returns the cube schema stored alongside the segments.
func (st *Store) Schema() *mdm.Schema { return st.schema }

// Rows returns the total logical row count (segments + WAL tail).
func (st *Store) Rows() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.segRows + st.tailRows
}

// tailAppend appends one row to the resident tail columns (mu held or
// store not yet shared).
func (st *Store) tailAppend(keys []int32, vals []float64) {
	for h, k := range keys {
		st.tailKeys[h] = append(st.tailKeys[h], k)
	}
	for m, v := range vals {
		st.tailMeas[m] = append(st.tailMeas[m], v)
	}
	st.tailRows++
}

// Append appends one row: WAL first, then the resident tail. The WAL
// record is encoded straight into the log's mapped window (or, without
// one, written with one positional write) before Append returns, so it
// is in the page cache and a returned Append survives a process crash.
// It is not fsync'd here: it survives power loss once the next fold,
// Compact or Close has finished, since each of those fsyncs the rows it
// carries. A fault on the mapping fails this and every later Append with
// the same error. Once the tail passes AutoCompactRows a background fold
// kicks off. A key outside its hierarchy's dictionary is an error.
func (st *Store) Append(keys []int32, vals []float64) error {
	st.appendMu.Lock()
	if st.closed {
		st.appendMu.Unlock()
		return fmt.Errorf("colstore: store is closed")
	}
	if err := st.persistGrowth(keys); err != nil {
		st.appendMu.Unlock()
		return err
	}
	if err := st.wal.append(keys, vals); err != nil {
		st.appendMu.Unlock()
		return err
	}
	st.mu.Lock()
	st.tailAppend(keys, vals)
	trigger := st.opts.AutoCompactRows > 0 && st.tailRows >= st.opts.AutoCompactRows
	st.mu.Unlock()
	st.appendMu.Unlock()
	mWALAppends.Inc()
	if trigger && st.compacting.CompareAndSwap(false, true) {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			defer st.compacting.Store(false)
			st.compactMu.Lock()
			defer st.compactMu.Unlock()
			st.compact(false)
		}()
	}
	return nil
}

// persistGrowth checks a row's keys against the live dictionaries and,
// when one names a base member registered after schema.bin was written,
// rewrites the file and takes the level maps anew before the row reaches
// the WAL (appendMu held): a reopened store must find every code its WAL
// and segments hold in its dictionaries, and a fold every code of the tail
// in ruMaps. This is the one place the store reads a live hierarchy, on
// the appender's goroutine: Hierarchy.AddMember must not overlap an Append
// or a scan of its schema, and need not know about background folds.
func (st *Store) persistGrowth(keys []int32) error {
	grown := false
	for h, k := range keys {
		if err := checkKey(st.schema.Hiers[h], k); err != nil {
			return fmt.Errorf("colstore: %w", err)
		}
		grown = grown || int(k) >= len(st.ruMaps[h][0])
	}
	if !grown {
		return nil
	}
	if err := writeSchemaFile(filepath.Join(st.dir, schemaName), st.schema); err != nil {
		return fmt.Errorf("colstore: rewriting the schema after dictionary growth: %w", err)
	}
	ruMaps := levelMaps(st.schema.Hiers)
	st.mu.Lock()
	st.ruMaps = ruMaps
	st.mu.Unlock()
	return nil
}

// checkKey bounds a row's key by its hierarchy's base dictionary, the
// one rule for a key an append brings and a key the WAL replays.
func checkKey(hier *mdm.Hierarchy, k int32) error {
	if n := hier.Dict(0).Len(); k < 0 || int(k) >= n {
		return fmt.Errorf("key %d out of range for hierarchy %s (%d members)", k, hier.Name(), n)
	}
	return nil
}

// Info describes the store for stats endpoints.
func (st *Store) Info() storage.SegmentInfo {
	st.mu.Lock()
	segs := make([]*segment, len(st.segs))
	copy(segs, st.segs)
	info := storage.SegmentInfo{
		Segments:    len(st.segs),
		SegmentRows: st.segRows,
		TailRows:    st.tailRows,
		Compactions: st.compactions.Load(),
	}
	st.mu.Unlock()
	for _, s := range segs {
		info.DiskBytes += s.diskBytes()
	}
	return info
}

// Compact synchronously folds the WAL tail into segments, merges
// adjacent undersized segments, and rewrites any segment still in the
// index-less version 1 format, so one call upgrades an old store. Safe
// to call concurrently with scans and appends.
func (st *Store) Compact() error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	return st.compact(true)
}

// Close cuts the WAL's zero tail, fsyncs the log and closes the store.
// Outstanding snapshots keep their segment references until released.
func (st *Store) Close() error {
	st.wg.Wait()
	st.appendMu.Lock()
	defer st.appendMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.wal.close(true)
	st.closeSegsLocked()
	return err
}

func (st *Store) closeSegs() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closeSegsLocked()
}

func (st *Store) closeSegsLocked() {
	for _, s := range st.segs {
		s.release()
	}
	st.segs = nil
}

// writeManifest persists the current root pointer (mu held, or store
// unshared) via tmp+rename.
func (st *Store) writeManifest() error {
	man := manifest{FormatVersion: 1, Seq: st.seq, WALEpoch: st.walEpoch, WALSkip: st.walSkip}
	man.Segments = make([]manifestSeg, len(st.segs))
	for i, s := range st.segs {
		man.Segments[i] = manifestSeg{File: filepath.Base(s.path), Rows: s.foot.rows}
	}
	return writeManifestFile(st.dir, man)
}

func writeManifestFile(dir string, man manifest) error {
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return CommitFile(filepath.Join(dir, manifestName), func(w *bufio.Writer) error {
		w.Write(raw)
		return w.WriteByte('\n')
	})
}

// writeSchemaFile writes the schema through CommitFile: a rewrite after
// dictionary growth must never leave a torn file behind.
func writeSchemaFile(path string, s *mdm.Schema) error {
	return CommitFile(path, func(w *bufio.Writer) error {
		w.Write(schemaMagic)
		return schemaio.Write(w, s)
	})
}

func readSchemaFile(path string) (*mdm.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, schemaMagic) {
		return nil, fmt.Errorf("colstore: %s is not a store schema", path)
	}
	return schemaio.Read(data[len(schemaMagic):])
}

// CommitFile replaces path with what write puts through a buffered
// writer, atomically and durably: the bytes go to path.tmp, which is
// fsync'd, closed and renamed over path, and then the directory is
// fsync'd so the rename itself survives power loss. On error path is
// untouched and the temporary removed. Every file of a cube directory is
// written this way: segments, MANIFEST, schema.bin, the rotated wal.log
// and internal/persist's labelers.bin.
func CommitFile(path string, write func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segName formats a segment file name for sequence number n.
func segName(n uint64) string { return fmt.Sprintf("seg-%06d.seg", n) }
