// Package storage implements the physical layer standing in for the star
// schema stored in the Oracle DBMS of the paper's prototype: columnar
// fact tables whose foreign-key columns reference the base-level member
// dictionaries of the cube's hierarchies. A FactTable is exactly a
// detailed cube C0 (Definition 2.4): a partial function from base
// coordinates to measure tuples, stored as one row per business event.
//
// A fact table has one of two physical backends behind the same logical
// surface: fully resident in-memory columns (the default, and the
// paper-scale configuration), or a disk-resident compressed segment
// store (internal/colstore) that keeps only the WAL tail and per-scan
// decode buffers in RAM. Queries reach the data through the ScanSource
// contract of source.go either way, and results are bit-exact across
// backends — the differential oracle sweeps a storage axis to keep it
// that way.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/mdm"
)

// FactTable is a columnar fact table. For the resident backend,
// Keys[h][r] is the base-level member id of hierarchy h for row r and
// Meas[m][r] the value of measure m; for the segment backend both are
// nil and the data lives behind seg. Append grows the resident columns
// under mu, and ScanSource and Rows read their headers and the row count
// together under it, so a scan beside appends sees a consistent prefix;
// Keys and Meas may be read directly only while no Append runs.
type FactTable struct {
	Schema *mdm.Schema
	Keys   [][]int32
	Meas   [][]float64
	mu     sync.Mutex
	rows   int
	// version counts appended rows; readable concurrently with queries so
	// the engine can derive a catalog generation for result-cache validity.
	version atomic.Uint64
	// seg, when non-nil, is the disk-resident segment backend and the
	// resident columns above are unused.
	seg SegmentBackend
}

// Version is a monotonic data version for cache invalidation: it
// advances by one per appended row (and opens at the on-disk row count for
// segment-backed tables, so reopening mid-process never rewinds it).
func (f *FactTable) Version() uint64 { return f.version.Load() }

// AdvanceVersion bumps the version by delta without appending rows. The
// distributed coordinator uses it to reconcile shard generations: when
// a shard reports appends the coordinator has not accounted for (or a
// result is degraded to a partial), advancing the local version
// invalidates cached results and stale views exactly as local appends
// would.
func (f *FactTable) AdvanceVersion(delta uint64) { f.version.Add(delta) }

// NewFactTable creates an empty resident fact table for the schema.
func NewFactTable(s *mdm.Schema) *FactTable {
	return &FactTable{
		Schema: s,
		Keys:   make([][]int32, len(s.Hiers)),
		Meas:   make([][]float64, len(s.Measures)),
	}
}

// NewSegmentTable wraps a segment backend (internal/colstore.Store) as a
// fact table for the schema. The backend's current row count seeds the
// version so cache generations stay monotonic across reopen-in-process.
func NewSegmentTable(s *mdm.Schema, b SegmentBackend) *FactTable {
	f := &FactTable{Schema: s, seg: b}
	f.version.Store(uint64(b.Rows()))
	return f
}

// Resident reports whether the table's data is fully in-memory.
func (f *FactTable) Resident() bool { return f.seg == nil }

// Segments returns the segment backend, nil for resident tables.
func (f *FactTable) Segments() SegmentBackend { return f.seg }

// NumHiers returns the number of hierarchies (key columns).
func (f *FactTable) NumHiers() int { return len(f.Schema.Hiers) }

// NumMeasures returns the number of measure columns.
func (f *FactTable) NumMeasures() int { return len(f.Schema.Measures) }

// Rows returns the number of fact rows, i.e. |C0|.
func (f *FactTable) Rows() int {
	if f.seg != nil {
		return f.seg.Rows()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rows
}

// ScanSource returns a block iterator over the fact data. need narrows
// the decoded columns and preds enable zone-map pruning for the segment
// backend; resident tables serve one zero-copy block regardless, over
// the rows appended before the call. The caller must Close the source.
func (f *FactTable) ScanSource(need ColSet, preds []LevelPred) ScanSource {
	if f.seg != nil {
		return f.seg.Snapshot(need, preds)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Copy the column headers: Append replaces them in place.
	return columnsSource{keys: slices.Clone(f.Keys), meas: slices.Clone(f.Meas), rows: f.rows}
}

// checkShape validates the column counts of a row or block.
func (f *FactTable) checkShape(keys, meas int) error {
	s := f.Schema
	if keys != len(s.Hiers) {
		return fmt.Errorf("storage: %s expects %d keys, got %d", s.Name, len(s.Hiers), keys)
	}
	if meas != len(s.Measures) {
		return fmt.Errorf("storage: %s expects %d measures, got %d", s.Name, len(s.Measures), meas)
	}
	return nil
}

// checkKeys validates one column of keys of hierarchy h against its base
// dictionary, naming a bad key's row by the position it would take.
func (f *FactTable) checkKeys(h int, col []int32) error {
	hier := f.Schema.Hiers[h]
	n := uint32(hier.Dict(0).Len())
	for r, k := range col {
		if uint32(k) >= n {
			return fmt.Errorf("storage: %s row %d: key %d out of range for hierarchy %s",
				f.Schema.Name, f.Rows()+r, k, hier.Name())
		}
	}
	return nil
}

// checkBlock validates a block before any of it is appended: one column
// per hierarchy and per measure, each b.Rows long, and every key in its
// hierarchy's base dictionary, column by column.
func (f *FactTable) checkBlock(b BlockCols) error {
	if err := f.checkShape(len(b.Keys), len(b.Meas)); err != nil {
		return err
	}
	s := f.Schema
	for h, col := range b.Keys {
		if len(col) != b.Rows {
			return fmt.Errorf("storage: %s block of %d rows has %d keys of hierarchy %s", s.Name, b.Rows, len(col), s.Hiers[h].Name())
		}
	}
	for m, col := range b.Meas {
		if len(col) != b.Rows {
			return fmt.Errorf("storage: %s block of %d rows has %d values of measure %s", s.Name, b.Rows, len(col), s.Measures[m].Name)
		}
	}
	for h, col := range b.Keys {
		if err := f.checkKeys(h, col); err != nil {
			return err
		}
	}
	return nil
}

// AppendBlock appends a block of fact rows in order: b.Keys holds one
// column of base-level member ids per hierarchy and b.Meas one column of
// values per measure, in schema order, each b.Rows long. The whole block
// is checked first, so a bad shape or key appends nothing; the resident
// backend then appends every row under one lock. The segment backend WALs
// the rows one by one, so a write fault part way leaves the rows before it
// appended. Version advances by the rows appended: it counts rows, not
// calls.
func (f *FactTable) AppendBlock(b BlockCols) error {
	if err := f.checkBlock(b); err != nil {
		return err
	}
	if f.seg == nil {
		f.mu.Lock()
		for h, col := range b.Keys {
			f.Keys[h] = append(f.Keys[h], col...)
		}
		for m, col := range b.Meas {
			f.Meas[m] = append(f.Meas[m], col...)
		}
		f.rows += b.Rows
		f.mu.Unlock()
		f.version.Add(uint64(b.Rows))
		return nil
	}
	keys, vals := make([]int32, len(b.Keys)), make([]float64, len(b.Meas))
	for r := 0; r < b.Rows; r++ {
		for h, col := range b.Keys {
			keys[h] = col[r]
		}
		for m, col := range b.Meas {
			vals[m] = col[r]
		}
		if err := f.seg.Append(keys, vals); err != nil {
			return err
		}
		f.version.Add(1)
	}
	return nil
}

// Append adds one fact row, the block of one: keys are base-level member
// ids, one per hierarchy in schema order; vals are measure values in
// schema order. It makes AppendBlock's checks on the row, then appends
// it value by value, which allocates nothing once capacity is reserved.
// On the segment backend the row is WAL'd before it becomes visible.
func (f *FactTable) Append(keys []int32, vals []float64) error {
	if err := f.checkShape(len(keys), len(vals)); err != nil {
		return err
	}
	for h := range keys {
		if err := f.checkKeys(h, keys[h:h+1]); err != nil {
			return err
		}
	}
	if f.seg != nil {
		if err := f.seg.Append(keys, vals); err != nil {
			return err
		}
		f.version.Add(1)
		return nil
	}
	f.mu.Lock()
	for h, k := range keys {
		f.Keys[h] = append(f.Keys[h], k)
	}
	for m, v := range vals {
		f.Meas[m] = append(f.Meas[m], v)
	}
	f.rows++
	f.mu.Unlock()
	f.version.Add(1)
	return nil
}

// MustAppend is Append that panics on error; intended for generators.
func (f *FactTable) MustAppend(keys []int32, vals []float64) {
	if err := f.Append(keys, vals); err != nil {
		panic(err)
	}
}

// Reserve pre-allocates capacity for n rows (resident backend only).
func (f *FactTable) Reserve(n int) {
	if f.seg != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for h := range f.Keys {
		if cap(f.Keys[h]) < n {
			col := make([]int32, len(f.Keys[h]), n)
			copy(col, f.Keys[h])
			f.Keys[h] = col
		}
	}
	for m := range f.Meas {
		if cap(f.Meas[m]) < n {
			col := make([]float64, len(f.Meas[m]), n)
			copy(col, f.Meas[m])
			f.Meas[m] = col
		}
	}
}
