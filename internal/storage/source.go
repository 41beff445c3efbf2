// Scan contract between fact-table backends and the query engine. A
// scan does not read columns through the FactTable directly; it asks for
// a ScanSource — a sequence of blocks, each exposing plain columnar
// slices. The resident backend serves one zero-copy block covering the
// whole table; the segment backend (internal/colstore) serves one block
// per on-disk segment, decoded on demand into caller-owned scratch, plus
// a final block for the WAL tail — and may refuse to decode a block
// whose zone maps prove no row can match the scan's predicates.
package storage

import (
	"errors"
	"math/bits"

	"github.com/assess-olap/assess/internal/mdm"
)

// LevelPred describes one scan predicate: the accepted member ids at one
// level of one hierarchy. For pruning it is a necessary condition only — a
// backend may skip a block when it can prove no row satisfies the
// predicate, and must serve the block otherwise.
type LevelPred struct {
	Hier    int
	Level   int
	Members []int32
	// Accept is the predicate prepared for row-exact filtering (Accepts):
	// Accept[id] reports whether base member id of the hierarchy passes
	// every predicate the scan holds on it, so the predicates of one
	// hierarchy share one vector. A backend filters rows on it and derives
	// nothing itself, so a scan's predicates always pass through Accepts;
	// only the zone-map probes (PruneProber, PrunePlanner) read bare ones.
	Accept []bool
}

// Accepts prepares a scan's predicates against the schema: it derives, once
// per predicated hierarchy (mdm.Hierarchy.Accept), the acceptance vector
// over base member ids, sets it as the Accept of every predicate on that
// hierarchy, and returns the vectors per hierarchy — nil where the scan
// has no predicate. Levels must be levels of the schema.
func Accepts(s *mdm.Schema, preds []LevelPred) [][]bool {
	accepts := make([][]bool, len(s.Hiers))
	for _, p := range preds {
		accepts[p.Hier] = s.Hiers[p.Hier].Accept(accepts[p.Hier], 0, p.Level, p.Members)
	}
	for i := range preds {
		preds[i].Accept = accepts[preds[i].Hier]
	}
	return accepts
}

// ColSet says which columns a scan will touch, so block decodes can
// skip the rest. A nil slice means "all columns of that kind".
type ColSet struct {
	Keys []bool // per hierarchy
	Meas []bool // per measure
	// PredOnly marks key columns needed solely to evaluate the scan's
	// predicates — filtered on but not grouped by. A backend that
	// evaluates the full predicate set row-exactly (returns blocks
	// with Sel non-nil) may leave these columns nil in BlockCols:
	// once a selection bitmap says which rows survive, no consumer
	// reads a predicate-only column again. Backends that do not
	// produce bitmaps must materialize them like any other needed key.
	PredOnly []bool
}

// NeedKey reports whether hierarchy h's key column is needed.
func (c ColSet) NeedKey(h int) bool { return c.Keys == nil || c.Keys[h] }

// PredOnlyKey reports whether hierarchy h's key column is needed only
// for predicate evaluation (see PredOnly).
func (c ColSet) PredOnlyKey(h int) bool {
	return c.PredOnly != nil && h < len(c.PredOnly) && c.PredOnly[h]
}

// NeedMeas reports whether measure m's column is needed.
func (c ColSet) NeedMeas(m int) bool { return c.Meas == nil || c.Meas[m] }

// BlockCols is one block of fact data as plain columnar slices. Columns
// the scan did not request may be nil. Slices are read-only and valid
// until the next Block call on the same scratch (resident blocks alias
// the table's own storage and stay valid for the source's lifetime).
type BlockCols struct {
	Keys [][]int32
	Meas [][]float64
	Rows int
	// Sel, when non-nil, is a little-endian row-selection bitmap of Rows
	// bits: the backend already evaluated the scan's full predicate set
	// row-exactly (late materialization), and consumers must visit set
	// rows only — unselected slots of gather-decoded measure columns hold
	// garbage. Sel == nil means the backend did no row-level filtering
	// and the engine filters on decoded codes as usual.
	Sel []uint64
	// SelCount is the number of set bits in Sel (meaningless when Sel is
	// nil). SelCount == Rows means every row matched.
	SelCount int
}

// Swept is the rows a scan of the block visits: the selected ones when
// the backend handed a bitmap, else all of them.
func (b BlockCols) Swept() int {
	if b.Sel != nil {
		return b.SelCount
	}
	return b.Rows
}

// Selected reports whether row r passed the backend's predicate
// evaluation; callers check Sel != nil first.
func (b BlockCols) Selected(r int) bool { return b.Sel[r>>6]>>(uint(r)&63)&1 != 0 }

// BlockScratch is per-worker reusable decode memory. Each concurrent
// consumer of a ScanSource must use its own scratch; the returned
// BlockCols alias its buffers.
type BlockScratch struct {
	Keys [][]int32
	Meas [][]float64
	// Buf stages compressed bytes for pread-backed readers.
	Buf []byte
	// Sel is the selection-bitmap buffer for late-materializing backends.
	Sel []uint64
}

// KeyBuf returns scratch key column h with capacity for n rows.
func (sc *BlockScratch) KeyBuf(h, cols, n int) []int32 {
	if len(sc.Keys) < cols {
		sc.Keys = append(sc.Keys, make([][]int32, cols-len(sc.Keys))...)
	}
	if cap(sc.Keys[h]) < n {
		sc.Keys[h] = make([]int32, n)
	}
	sc.Keys[h] = sc.Keys[h][:n]
	return sc.Keys[h]
}

// SelBuf returns the scratch selection bitmap sized for n rows, zeroed.
func (sc *BlockScratch) SelBuf(n int) []uint64 {
	words := (n + 63) >> 6
	if cap(sc.Sel) < words {
		sc.Sel = make([]uint64, words)
	}
	sc.Sel = sc.Sel[:words]
	for i := range sc.Sel {
		sc.Sel[i] = 0
	}
	return sc.Sel
}

// AppendSelIndices appends the indices of the bits set in sel within
// [lo, hi) to dst and returns it. Engines use it to turn a backend
// selection bitmap into the row-index selection vectors their kernels
// consume, morsel by morsel.
func AppendSelIndices(dst []int, sel []uint64, lo, hi int) []int {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := sel[w]
		base := w << 6
		if base < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+64 > hi {
			word &= ^uint64(0) >> (uint(base+64-hi) & 63)
		}
		for word != 0 {
			dst = append(dst, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// MeasBuf returns scratch measure column m with capacity for n rows.
func (sc *BlockScratch) MeasBuf(m, cols, n int) []float64 {
	if len(sc.Meas) < cols {
		sc.Meas = append(sc.Meas, make([][]float64, cols-len(sc.Meas))...)
	}
	if cap(sc.Meas[m]) < n {
		sc.Meas[m] = make([]float64, n)
	}
	sc.Meas[m] = sc.Meas[m][:n]
	return sc.Meas[m]
}

// ScanSource iterates a fact table's data block by block. Blocks are
// ordered: concatenating them in index order yields the table in append
// order, which is what keeps serial scans bit-exact across backends.
// Block may be called concurrently for different blocks as long as each
// caller owns its scratch. Close releases backend resources (segment
// references); callers must always Close, typically via defer.
type ScanSource interface {
	// Rows is the total logical row count across all blocks.
	Rows() int
	// Blocks is the number of blocks (pruned ones included).
	Blocks() int
	// BlockRows is the row count of block b without decoding it.
	BlockRows(b int) int
	// Block decodes block b into sc. ok=false means the block was
	// pruned by zone maps (no row can match the scan's predicates).
	Block(b int, sc *BlockScratch) (cols BlockCols, ok bool, err error)
	Close()
}

// PruneProber has no caller in the program; it leaves with the
// benchmark-only PR of ROADMAP item 1c (the frozen module's seam test
// asserts it on a colstore snapshot, which is its one implementer).
type PruneProber interface {
	// PrunedFor reports whether block b provably contains no row
	// satisfying preds: a necessary condition only, like Snapshot pruning.
	PrunedFor(b int, preds []LevelPred) bool
}

// PrunePlan has no caller in the program; it leaves with PruneProber.
type PrunePlan interface {
	Pruned(b int) bool
}

// PrunePlanner has no caller in the program; it leaves with PruneProber.
type PrunePlanner interface {
	PrunePlan(preds []LevelPred) PrunePlan
}

// SegmentBackend is the disk-resident columnar backend of a FactTable,
// implemented by internal/colstore.Store.
type SegmentBackend interface {
	// Rows is the total logical row count (segments + WAL tail).
	Rows() int
	// Append durably appends one row (WAL) and makes it visible to
	// subsequent snapshots.
	Append(keys []int32, vals []float64) error
	// Snapshot captures a consistent view of the data for one scan.
	Snapshot(need ColSet, preds []LevelPred) ScanSource
	// Info describes the backend for stats endpoints.
	Info() SegmentInfo
}

// SegmentInfo is a point-in-time description of a segment backend.
type SegmentInfo struct {
	// Segments is the number of on-disk segment files.
	Segments int
	// SegmentRows is the row count stored in segments.
	SegmentRows int
	// TailRows is the row count of the resident WAL tail.
	TailRows int
	// DiskBytes is the compressed on-disk size of all segments.
	DiskBytes int64
	// Compactions counts WAL folds and segment merges since open.
	Compactions int64
}

// columnsSource is a single-block zero-copy source over resident
// columns; it backs resident fact tables and the engine's scans over
// materialized-view columns.
type columnsSource struct {
	keys [][]int32
	meas [][]float64
	rows int
}

func (s columnsSource) Rows() int         { return s.rows }
func (s columnsSource) Blocks() int       { return 1 }
func (s columnsSource) BlockRows(int) int { return s.rows }
func (s columnsSource) Close()            {}
func (s columnsSource) Block(b int, _ *BlockScratch) (BlockCols, bool, error) {
	return BlockCols{Keys: s.keys, Meas: s.meas, Rows: s.rows}, true, nil
}

// ColumnsSource wraps plain in-memory columns as a single-block
// ScanSource (zero-copy; the caller's slices are aliased).
func ColumnsSource(keys [][]int32, meas [][]float64, rows int) ScanSource {
	return columnsSource{keys: keys, meas: meas, rows: rows}
}

// rowsFrom is a source without its first rows (see RowsFrom).
type rowsFrom struct {
	src   ScanSource
	first int // first block of src that holds a row at or past the cut
	skip  int // rows of that block before the cut
	rows  int
}

// RowsFrom narrows src to the rows at or past row from. Blocks
// concatenate to the table in append order, so a row count is a position:
// whatever the layout — resident columns, segments, segments a compaction
// has since merged, the WAL tail — rows [from, Rows()) are the rows
// appended after the table held from rows. Blocks that end at or before
// the cut are skipped on BlockRows alone, never decoded; the one block the
// cut falls inside is served with its leading rows sliced off. src must
// have been opened without predicates: a block that carries a selection
// bitmap is an error. Closing the result closes src.
func RowsFrom(src ScanSource, from int) ScanSource {
	if from <= 0 {
		return src
	}
	r := &rowsFrom{src: src, skip: from, rows: max(src.Rows()-from, 0)}
	for nb := src.Blocks(); r.first < nb && r.skip >= src.BlockRows(r.first); r.first++ {
		r.skip -= src.BlockRows(r.first)
	}
	return r
}

func (r *rowsFrom) Rows() int   { return r.rows }
func (r *rowsFrom) Blocks() int { return r.src.Blocks() - r.first }
func (r *rowsFrom) Close()      { r.src.Close() }

func (r *rowsFrom) BlockRows(b int) int {
	if b == 0 {
		return r.src.BlockRows(r.first) - r.skip
	}
	return r.src.BlockRows(r.first + b)
}

func (r *rowsFrom) Block(b int, sc *BlockScratch) (BlockCols, bool, error) {
	cols, ok, err := r.src.Block(r.first+b, sc)
	if err != nil || !ok {
		return cols, ok, err
	}
	if cols.Sel != nil {
		return BlockCols{}, false, errors.New("storage: RowsFrom over a source opened with predicates")
	}
	if b == 0 && r.skip > 0 {
		// The outer slices may be the table's own (resident blocks alias
		// them), so the trimmed columns get fresh ones.
		cols.Keys, cols.Meas, cols.Rows = trimCols(cols.Keys, r.skip), trimCols(cols.Meas, r.skip), cols.Rows-r.skip
	}
	return cols, true, nil
}

// trimCols returns the columns without their first n values; columns the
// scan did not request stay nil.
func trimCols[T any](cols [][]T, n int) [][]T {
	out := make([][]T, len(cols))
	for i, col := range cols {
		if col != nil {
			out[i] = col[n:]
		}
	}
	return out
}
