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
	// the result cache can stamp what an answer read. It is written only
	// under mu, after marks (publish).
	version atomic.Uint64
	// marks records where appends landed (TouchedSince), at the levels
	// a reader watches (Watch); nil before the first, so loading a fact
	// pays nothing for it.
	marks atomic.Pointer[marks]
	// seg, when non-nil, is the disk-resident segment backend and the
	// resident columns above are unused.
	seg SegmentBackend
}

// Version is a monotonic data version: it advances by one per appended
// row (and opens at the on-disk row count for segment-backed tables, so
// reopening mid-process never rewinds it). The result cache stamps an
// entry with the versions of the facts it read, and keeps it across a
// version that moved only if TouchedSince shows the rows since then
// fall outside every get of the entry. Views compare it with their mark
// to find the rows they have not absorbed.
func (f *FactTable) Version() uint64 { return f.version.Load() }

// Watch starts recording where appends land at one level, for a reader
// that will ask TouchedSince about the rows appended after the Version
// it loads next. Loading a fact, and levels no reader watches, pay
// nothing for it.
func (f *FactTable) Watch(ref mdm.LevelRef) {
	if m := f.marks.Load(); m != nil && m.levels[ref.Hier][ref.Level].Load() != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.marks.Load()
	if m == nil {
		m = &marks{levels: make([][]atomic.Pointer[levelMarks], len(f.Schema.Hiers))}
		for h, hier := range f.Schema.Hiers {
			m.levels[h] = make([]atomic.Pointer[levelMarks], hier.Depth())
		}
		f.marks.Store(m)
	}
	if m.levels[ref.Hier][ref.Level].Load() == nil {
		lm := &levelMarks{ref: ref, since: f.version.Load()}
		m.watched = append(m.watched, lm)
		m.levels[ref.Hier][ref.Level].Store(lm)
	}
}

// AdvanceVersion bumps the version by delta without appending rows. The
// distributed coordinator uses it to reconcile shard generations: when
// a shard reports appends the coordinator has not accounted for (or a
// result is degraded to a partial), advancing the local version
// invalidates stale views as local appends would. It carries no rows,
// so it touches the whole fact: no cached result that read the fact
// outlives it.
func (f *FactTable) AdvanceVersion(delta uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.version.Load() + delta
	if m := f.marks.Load(); m != nil {
		m.whole = v
	}
	f.version.Store(v)
}

// TouchedSince reports whether a row added after version v lies under
// one of members at level ref: whether a get with the predicate ref ∈
// members could now read a row that it could not read at version v. An
// AdvanceVersion past v touches every member, and so does any row when
// ref was not watched yet at v (Watch). The caller loads the version it
// compares against before calling (see publish).
func (f *FactTable) TouchedSince(v uint64, ref mdm.LevelRef, members []int32) bool {
	m := f.marks.Load()
	var lm *levelMarks
	if m != nil {
		lm = m.levels[ref.Hier][ref.Level].Load()
	}
	if lm == nil || v < lm.since {
		return f.version.Load() > v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m.whole > v {
		return true
	}
	for _, id := range members {
		if uint(id) < uint(len(lm.col)) && lm.col[id] > v {
			return true
		}
	}
	return false
}

// marks is where appends landed at the watched levels, and in whole the
// version the last AdvanceVersion reached. Marks only grow. They are
// read and written under the fact's mu, so that an append stores them
// with plain writes; levels is also read without it, to find whether a
// level is watched.
type marks struct {
	whole   uint64
	levels  [][]atomic.Pointer[levelMarks] // [hierarchy][level], nil until watched
	watched []*levelMarks
}

// levelMarks is one watched level's marks: per member, the version the
// last row appended under it brought the fact to, since the version the
// level was first watched at; and the roll-up table from base members
// the column was last grown by.
type levelMarks struct {
	ref   mdm.LevelRef
	since uint64
	up    []int32
	col   []uint64
}

// publish makes n rows that were just appended, and are visible to a
// scan snapshot taken from now on, known to the result cache. The order
// is what makes a kept entry sound:
//
//  1. the rows become visible (the caller appended them);
//  2. the version they bring the fact to is stored as the mark of every
//     member their keys fall under, at every watched level;
//  3. only then does the version advance;
//  4. a cache entry loads the fact's version before its scans take
//     their snapshots.
//
// So every row an entry's version counts is in its answer, and a probe
// that loads a newer version and then takes mu (TouchedSince) finds the
// marks of every row that version counts. keys holds the rows' keys, a
// column per hierarchy. f.mu must be held, so marks and versions advance
// together.
func (f *FactTable) publish(n int, keys [][]int32) {
	v := f.version.Load() + uint64(n)
	if m := f.marks.Load(); m != nil {
		m.touch(f.Schema, keys, v)
	}
	f.version.Store(v)
}

// publishRow is publish for one row, its keys one per hierarchy.
func (f *FactTable) publishRow(keys []int32) {
	var buf [8][]int32 // on the stack: the row allocates nothing
	cols := buf[:0]
	for h := range keys {
		cols = append(cols, keys[h:h+1])
	}
	f.publish(1, cols)
}

// touch stores v as the mark of every member, at every watched level,
// that the rows' keys (a column per hierarchy) fall under; the fact's mu
// must be held.
func (m *marks) touch(s *mdm.Schema, keys [][]int32, v uint64) {
	for _, lm := range m.watched {
		for _, k := range keys[lm.ref.Hier] {
			if uint(k) >= uint(len(lm.up)) {
				lm.grow(s.Hiers[lm.ref.Hier])
			}
			lm.col[lm.up[k]] = v
		}
	}
}

// grow takes the level's roll-up table and marks up to its dictionary;
// the fact's mu must be held.
func (lm *levelMarks) grow(hier *mdm.Hierarchy) {
	lm.up = hier.LevelMap(0, lm.ref.Level)
	if n := hier.Dict(lm.ref.Level).Len(); len(lm.col) < n {
		lm.col = append(lm.col, make([]uint64, n-len(lm.col))...)
	}
}

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
	if f.seg != nil {
		keys, vals := make([]int32, len(b.Keys)), make([]float64, len(b.Meas))
		for r := range b.Rows {
			for h, col := range b.Keys {
				keys[h] = col[r]
			}
			for m, col := range b.Meas {
				vals[m] = col[r]
			}
			if err := f.appendSegmentRow(keys, vals); err != nil {
				return err
			}
		}
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for h, col := range b.Keys {
		f.Keys[h] = append(f.Keys[h], col...)
	}
	for m, col := range b.Meas {
		f.Meas[m] = append(f.Meas[m], col...)
	}
	f.rows += b.Rows
	f.publish(b.Rows, b.Keys)
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
		return f.appendSegmentRow(keys, vals)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for h, k := range keys {
		f.Keys[h] = append(f.Keys[h], k)
	}
	for m, v := range vals {
		f.Meas[m] = append(f.Meas[m], v)
	}
	f.rows++
	f.publishRow(keys)
	return nil
}

// appendSegmentRow appends one checked row to the segment backend, which
// makes it visible, and then publishes it.
func (f *FactTable) appendSegmentRow(keys []int32, vals []float64) error {
	if err := f.seg.Append(keys, vals); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishRow(keys)
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
