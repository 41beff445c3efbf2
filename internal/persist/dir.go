// Package persist stores cubes on disk as cube directories — the
// program's one persisted form — and imports/exports fact data as CSV, an
// interchange format rather than a store.
//
// A cube directory is an internal/colstore segment store: schema.bin,
// MANIFEST, segment files and a WAL. SaveCubeDir/OpenCubeDir write and
// open one cube; SaveDir/OpenDir write and open a whole session, one
// store subdirectory per cube. Cubes over shared dimensions decode their
// hierarchies separately, so OpenDir reconciles them (ReconcileSchemas)
// before an external benchmark (Definition 3.1) can join them.
//
// Declared labeling functions ride along in a labelers.bin sidecar at the
// root of the directory, so a reopened session keeps its predeclared
// labelers (Section 4.1 of the paper): SaveLabelers/LoadLabelers
// serialize every range-based labeler by name and interval list.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// LabelersFile is the name of the labeler sidecar inside a cube
// directory.
const LabelersFile = "labelers.bin"

const labelersMagic = "ASSESSLBL\x01"

// SaveCubeDir writes the fact table into a colstore segment directory
// at dir, streaming block by block — the encoded form never holds more
// than one segment's rows in flight beyond the source table itself.
func SaveCubeDir(dir string, f *storage.FactTable, opts colstore.Options) error {
	w, err := colstore.CreateBulk(dir, f.Schema, opts)
	if err != nil {
		return err
	}
	src := f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	if err := copyRows(w.Append, src, len(f.Schema.Hiers), len(f.Schema.Measures)); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// OpenCubeDir opens a segment directory as a segment-backed fact table.
// The returned Store owns the on-disk state; close it when done with
// the table.
func OpenCubeDir(dir string, opts colstore.Options) (*storage.FactTable, *colstore.Store, error) {
	st, err := colstore.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	return storage.NewSegmentTable(st.Schema(), st), st, nil
}

// LoadCubeDirResident reads a segment directory fully into an in-memory
// fact table, decoding every segment once.
func LoadCubeDirResident(dir string) (*storage.FactTable, error) {
	st, err := colstore.Open(dir, colstore.Options{AutoCompactRows: -1})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	f := storage.NewFactTable(st.Schema())
	f.Reserve(st.Rows())
	src := st.Snapshot(storage.ColSet{}, nil)
	defer src.Close()
	if err := copyRows(f.Append, src, len(f.Schema.Hiers), len(f.Schema.Measures)); err != nil {
		return nil, err
	}
	return f, nil
}

// copyRows streams every row of src into the append function.
func copyRows(appendRow func([]int32, []float64) error, src storage.ScanSource, nkeys, nmeas int) error {
	var sc storage.BlockScratch
	keys := make([]int32, nkeys)
	vals := make([]float64, nmeas)
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		for r := 0; r < cols.Rows; r++ {
			for h := range keys {
				keys[h] = cols.Keys[h][r]
			}
			for m := range vals {
				vals[m] = cols.Meas[m][r]
			}
			if err := appendRow(keys, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveDir writes every cube, each into the store subdirectory of dir
// named after it, and the labelers into dir's labeler sidecar.
func SaveDir(dir string, cubes map[string]*storage.FactTable, labelers []*labeling.Ranges) error {
	if len(cubes) == 0 {
		return fmt.Errorf("persist: no cubes to save")
	}
	for name, f := range cubes {
		if err := SaveCubeDir(filepath.Join(dir, name), f, colstore.Options{}); err != nil {
			return fmt.Errorf("persist: cube %s: %w", name, err)
		}
	}
	return SaveLabelers(dir, labelers)
}

// Opened is a directory of cubes opened by OpenDir.
type Opened struct {
	// Facts are the cubes, with their shared hierarchies reconciled; each
	// is named by its schema.
	Facts []*storage.FactTable
	// Labelers are the range-based labelers of the root sidecar.
	Labelers []*labeling.Ranges
	// Close closes the segment stores behind out-of-core facts.
	Close func() error
}

// OpenDir opens dir, which is either itself a store directory (one cube)
// or a parent whose immediate store subdirectories each hold one: the
// layout SaveDir and ssbgen -out-dir write. Facts are segment-backed
// (out-of-core), or decoded fully into memory when resident is set.
func OpenDir(dir string, resident bool) (*Opened, error) {
	subs := []string{dir}
	if !colstore.IsStoreDir(dir) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		subs = nil
		for _, e := range entries {
			if sub := filepath.Join(dir, e.Name()); e.IsDir() && colstore.IsStoreDir(sub) {
				subs = append(subs, sub)
			}
		}
		if len(subs) == 0 {
			return nil, fmt.Errorf("persist: no cube directories under %s", dir)
		}
	}
	var stores []*colstore.Store
	o := &Opened{Close: func() error {
		var errs []error
		for _, st := range stores {
			errs = append(errs, st.Close())
		}
		return errors.Join(errs...)
	}}
	schemas := make([]*mdm.Schema, len(subs))
	for i, sub := range subs {
		var f *storage.FactTable
		var err error
		if resident {
			f, err = LoadCubeDirResident(sub)
		} else {
			var st *colstore.Store
			if f, st, err = OpenCubeDir(sub, colstore.Options{}); err == nil {
				stores = append(stores, st)
			}
		}
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("persist: %s: %w", sub, err)
		}
		o.Facts = append(o.Facts, f)
		schemas[i] = f.Schema
	}
	ReconcileSchemas(schemas...)
	var err error
	if o.Labelers, err = LoadLabelers(dir); err != nil {
		o.Close()
		return nil, err
	}
	return o, nil
}

// SaveLabelers writes the range-based labelers into dir's labeler
// sidecar, replacing any previous one through colstore.CommitFile.
func SaveLabelers(dir string, labelers []*labeling.Ranges) error {
	return colstore.CommitFile(filepath.Join(dir, LabelersFile), func(w *bufio.Writer) error {
		encodeLabelers(w, labelers)
		return nil
	})
}

// encodeLabelers renders the sidecar:
//
//	"ASSESSLBL\x01", u32 labeler count, per labeler: name,
//	u32 interval count, per interval: f64 lo, f64 hi,
//	u8 open (bit 0 lo, bit 1 hi), label
//
// Integers are little-endian; strings are u32-length-prefixed.
func encodeLabelers(w *bufio.Writer, labelers []*labeling.Ranges) {
	u32 := func(v int) { w.Write(binary.LittleEndian.AppendUint32(nil, uint32(v))) }
	str := func(s string) { u32(len(s)); w.WriteString(s) }
	w.WriteString(labelersMagic)
	u32(len(labelers))
	for _, l := range labelers {
		str(l.Name())
		u32(len(l.Intervals()))
		for _, iv := range l.Intervals() {
			w.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(iv.Lo)))
			w.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(iv.Hi)))
			var open byte
			if iv.LoOpen {
				open |= 1
			}
			if iv.HiOpen {
				open |= 2
			}
			w.WriteByte(open)
			str(iv.Label)
		}
	}
}

// LoadLabelers reads the labeler sidecar of dir. A missing sidecar is
// not an error: it returns an empty slice.
func LoadLabelers(dir string) ([]*labeling.Ranges, error) {
	data, err := os.ReadFile(filepath.Join(dir, LabelersFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeLabelers(data)
}

// decodeLabelers accepts exactly what encodeLabelers writes: every count
// and length is checked against the bytes left before anything is sized
// from it, intervals must be in the order labeling.NewRanges keeps, and
// no byte may trail.
func decodeLabelers(data []byte) ([]*labeling.Ranges, error) {
	if !bytes.HasPrefix(data, []byte(labelersMagic)) {
		return nil, fmt.Errorf("persist: %s is not a labeler sidecar", LabelersFile)
	}
	b := data[len(labelersMagic):]
	var err error
	take := func(n int) []byte {
		if err == nil && n > len(b) {
			err = fmt.Errorf("persist: truncated labeler sidecar: want %d bytes, %d left", n, len(b))
		}
		if err != nil {
			return nil
		}
		p := b[:n]
		b = b[n:]
		return p
	}
	u32 := func() int {
		if p := take(4); p != nil {
			return int(binary.LittleEndian.Uint32(p))
		}
		return 0
	}
	f64 := func() float64 {
		if p := take(8); p != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(p))
		}
		return 0
	}
	str := func() string { return string(take(u32())) }
	// count reads a count of items taking at least size bytes each.
	count := func(size int) int {
		if n := u32(); n*size <= len(b) {
			return n
		}
		take(len(b) + 1)
		return 0
	}
	var labelers []*labeling.Ranges
	for i, n := 0, count(8); i < n && err == nil; i++ {
		name := str()
		ivs := make([]labeling.Interval, count(21))
		for j := range ivs {
			iv := &ivs[j]
			iv.Lo, iv.Hi = f64(), f64()
			open := take(1)
			if err == nil && open[0] > 3 {
				err = fmt.Errorf("persist: labeler %q: bad interval flags %#x", name, open[0])
			}
			if err != nil {
				break
			}
			iv.LoOpen, iv.HiOpen, iv.Label = open[0]&1 != 0, open[0]&2 != 0, str()
		}
		if err != nil {
			break
		}
		l, lerr := labeling.NewRanges(name, ivs)
		if lerr != nil {
			return nil, fmt.Errorf("persist: invalid labeler %q: %w", name, lerr)
		}
		if !slices.Equal(l.Intervals(), ivs) {
			return nil, fmt.Errorf("persist: labeler %q lists its intervals out of order", name)
		}
		labelers = append(labelers, l)
	}
	if err == nil && len(b) > 0 {
		err = fmt.Errorf("persist: %d trailing bytes in labeler sidecar", len(b))
	}
	if err != nil {
		return nil, err
	}
	return labelers, nil
}
