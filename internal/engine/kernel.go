package engine

import (
	"math"
	"slices"
	"sync"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// The aggregation kernel. Level columns are already dictionary-encoded,
// so a scan's group-by set maps to an integer key space: the composite
// key of a row is the mixed-radix number formed by its group-level member
// ids (mdm.KeySpace), and the whole space has Π |Dom(g_i)| keys. Every
// morsel goes through the same steps — selection vector, composite keys
// column-at-a-time, slot lookup, one tight accumulate loop per requested
// measure — into flat accumulator columns indexed by slot. When the key
// space fits the engine's slot budget the slot IS the key (dense);
// otherwise an mdm.Slots table hands out slots (hash). The two differ in
// slot lookup only and agree bit-exactly on integer-valued measures (exact
// in float64 in any order): TestKernelMatchesReference checks both.

// defaultDenseKeyBudget is the maximum number of dense key-space slots
// (per worker) before a scan falls back to the slot table. Each slot
// costs 8 bytes per requested measure plus an 8-byte row count, per
// worker, for the duration of the scan.
const defaultDenseKeyBudget = 1 << 20

// DefaultMorselSize is the default number of fact rows per morsel, the
// unit of work claimed by scan workers (see scan.go).
const DefaultMorselSize = 64 * 1024

// denseKeyBudget returns the effective slot budget (0 = dense disabled).
func (e *Engine) denseKeyBudget() int {
	switch {
	case e.denseBudget == 0:
		return defaultDenseKeyBudget
	case e.denseBudget < 0:
		return 0
	}
	return e.denseBudget
}

// SetMorselSize sets the number of fact rows per scan morsel (values
// below 1 restore DefaultMorselSize). Smaller morsels balance skewed
// predicate work across workers at the cost of more queue traffic. A
// morsel is also each worker's row floor: a scan gets no more workers
// than it has morsels (scanShape).
func (e *Engine) SetMorselSize(rows int) {
	if rows < 1 {
		rows = DefaultMorselSize
	}
	e.morselSize = rows
}

// effectiveMorselSize tolerates a zero-value Engine.
func (e *Engine) effectiveMorselSize() int {
	if e.morselSize < 1 {
		return DefaultMorselSize
	}
	return e.morselSize
}

// init completes a scanQuery whose operators, acceptance vectors and
// roll-up maps are set: it lays out the composite key space over the
// group levels' cardinalities and decides dense or hash — dense when no
// level domain is empty and the space fits the budget.
func (sq *scanQuery) init(cards []int, budget int) {
	for _, op := range sq.ops {
		if op == mdm.AggCount || op == mdm.AggAvg {
			sq.needCnt = true
		}
	}
	for _, acc := range sq.accepts {
		if acc != nil {
			sq.filtered = true
		}
	}
	sq.cards = cards
	sq.space = mdm.NewKeySpace(cards)
	if size, ok := sq.space.Size(); ok && size > 0 && size <= uint64(max(budget, 0)) {
		sq.dense = int(size)
	}
}

// aggTable is one worker's accumulator columns for one query, indexed by
// slot. All measures of a cell see the same accepted rows, so one row
// count per slot serves every requested measure (and decides slot
// occupancy). Scans with no count- or avg-valued measure don't need the
// count at all: a one-byte seen flag per slot tracks occupancy instead,
// which keeps the occupancy column 8x smaller and turns the per-row
// count increment into a mostly-not-taken branch.
//
// On a dense table the slot is the composite key and the columns span the
// key space from the start; otherwise the columns grow with the slots.
type aggTable struct {
	vals [][]float64 // per requested measure; nil for count measures
	cnt  []int64     // accepted rows per slot; nil when seen suffices
	seen []bool      // slot occupancy when no measure needs a count

	slots *mdm.Slots // nil on a dense table
}

// newTable returns an empty partial for the query.
func (sq *scanQuery) newTable() *aggTable {
	t := &aggTable{vals: make([][]float64, len(sq.ops))}
	if sq.dense > 0 {
		t.grow(sq, sq.dense)
	} else {
		t.slots = mdm.NewSlots(sq.space, 1<<9)
	}
	return t
}

// size is the number of slots the columns hold (one of cnt and seen is
// nil).
func (t *aggTable) size() int { return len(t.cnt) + len(t.seen) }

// grow extends the columns to size slots; new slots hold each operator's
// identity, so merging or finalizing an untouched slot is a no-op.
func (t *aggTable) grow(sq *scanQuery, size int) {
	from := t.size()
	if sq.needCnt {
		t.cnt = append(t.cnt, make([]int64, size-from)...)
	} else {
		t.seen = append(t.seen, make([]bool, size-from)...)
	}
	for j, op := range sq.ops {
		if op == mdm.AggCount {
			continue // finalized from cnt
		}
		col := append(t.vals[j], make([]float64, size-from)...)
		var init float64
		switch op {
		case mdm.AggMin:
			init = math.Inf(1)
		case mdm.AggMax:
			init = math.Inf(-1)
		}
		if init != 0 {
			for s := from; s < size; s++ {
				col[s] = init
			}
		}
		t.vals[j] = col
	}
}

// reserve makes room for every slot the table has assigned.
func (t *aggTable) reserve(sq *scanQuery, slots int) {
	if slots > t.size() {
		t.grow(sq, max(slots, 2*t.size()))
	}
}

// morselScratch is per-worker reusable kernel memory: the selection
// vector of accepted row indices, the composite keys (then slots) aligned
// with it, and the block decode buffers for segment-backed scans.
type morselScratch struct {
	sel   []int32
	dk    []uint64
	block storage.BlockScratch
}

// scratchPool recycles morsel scratch across scans and workers. A
// segment-backed scan's decode buffers run to megabytes per worker;
// reallocating them for every query made allocation and GC a fixed
// per-query cost that dwarfed the useful work of selective scans.
// Pooled scratch must never outlive the scan that got it: every
// BlockCols handed to the kernels aliases its buffers, and results are
// materialized (cloned) before the scratch is put back.
var scratchPool = sync.Pool{New: func() any { return new(morselScratch) }}

func getScratch() *morselScratch { return scratchPool.Get().(*morselScratch) }

func putScratch(sc *morselScratch) { scratchPool.Put(sc) }

// selection lists the rows of the morsel [lo, hi) that every scan
// predicate accepts, block-local: the morsel's rows are [lo, hi) of the
// block, or of its Listed rows, and each predicated hierarchy compacts
// them into a reusable selection vector, the first from the morsel, later
// ones in place. A listed morsel with no predicate is its Listed rows as
// they are. The compaction writes every row and advances on accept, with
// no branch on the acceptance (a conditional move). Over 64 Ki rows on the
// 2-core host (medians of five) it took 1.0–1.4 ns a row at any
// selectivity, where a branch on the acceptance took 7.9–8.4 ns at one row
// in two and 2.8–3.2 ns at one in seven, and saved about 0.1 ns only at
// one in 100 or rarer. An unlisted morsel's first predicate reads the
// range itself: filling the vector with it first, so that one loop body
// serves both, cost 0.6–1.0 ns a row more. A Filtered block never comes
// here: its backend already evaluated the predicates and left no
// predicate-only column to evaluate them on.
func (sq *scanQuery) selection(sc *morselScratch, cols storage.BlockCols, lo, hi int) []int32 {
	if cap(sc.sel) < hi-lo {
		sc.sel = make([]int32, hi-lo)
	}
	var from []int32 // the rows left so far; nil before an unlisted morsel's first predicate
	if cols.Listed != nil {
		from = cols.Listed[lo:hi]
	}
	for h, acc := range sq.accepts {
		if acc == nil {
			continue
		}
		keys, sel, n := cols.Keys[h], sc.sel[:hi-lo], 0
		if from == nil {
			for r := lo; r < hi; r++ {
				sel[n] = int32(r)
				if acc[keys[r]] {
					n++
				}
			}
		} else {
			for _, r := range from {
				sel[n] = r
				if acc[keys[r]] {
					n++
				}
			}
		}
		from = sel[:n]
	}
	return from
}

// morsel aggregates rows [lo, hi) of a block, or of its Listed rows, into
// the table: selection vector (skipped entirely when every row of an
// unlisted block is accepted, as in a Filtered block), composite keys,
// slot lookup off the dense path, then accumulate.
func (sq *scanQuery) morsel(t *aggTable, sc *morselScratch, cols storage.BlockCols, lo, hi int) {
	var sel []int32
	n := hi - lo
	if cols.Listed != nil || sq.filtered && !cols.Filtered {
		sel = sq.selection(sc, cols, lo, hi)
		n = len(sel)
		if n == 0 {
			return
		}
	}
	if cap(sc.dk) < n {
		sc.dk = make([]uint64, n)
	}
	dk := sc.dk[:n]
	if sq.space.Wide() {
		sq.wideSlots(t, dk, sel, cols, lo)
		t.reserve(sq, t.slots.Len())
	} else {
		sq.compositeKeys(dk, sel, cols, lo)
		if sq.dense == 0 {
			t.slots.Assign(dk)
			t.reserve(sq, t.slots.Len())
		}
	}
	sq.accum(t, dk, sel, cols, lo)
}

// compositeKeys fills dk with the composite key of every selected row,
// one group position at a time: the first initializes dk (no clear pass),
// later positions accumulate into it. sel == nil means the identity
// selection starting at row lo.
func (sq *scanQuery) compositeKeys(dk []uint64, sel []int32, cols storage.BlockCols, lo int) {
	if len(sq.group) == 0 {
		clear(dk)
	}
	for gi, ref := range sq.group {
		stride := sq.space.Stride(gi)
		gm := sq.gmaps[gi]
		keys := cols.Keys[ref.Hier]
		switch {
		case sel == nil && gi == 0:
			for i := range dk {
				dk[i] = uint64(gm[keys[lo+i]]) * stride
			}
		case sel == nil:
			for i := range dk {
				dk[i] += uint64(gm[keys[lo+i]]) * stride
			}
		case gi == 0:
			for i, r := range sel {
				dk[i] = uint64(gm[keys[r]]) * stride
			}
		default:
			for i, r := range sel {
				dk[i] += uint64(gm[keys[r]]) * stride
			}
		}
	}
}

// wideSlots fills dk with slots directly, row by row: a key space past
// 64 bits has no composite key to vectorize over.
func (sq *scanQuery) wideSlots(t *aggTable, dk []uint64, sel []int32, cols storage.BlockCols, lo int) {
	coord := make(mdm.Coordinate, len(sq.group))
	for i := range dk {
		r := lo + i
		if sel != nil {
			r = int(sel[i])
		}
		for gi, ref := range sq.group {
			coord[gi] = sq.gmaps[gi][cols.Keys[ref.Hier][r]]
		}
		dk[i] = uint64(t.slots.AssignCoord(coord))
	}
}

// accum folds one morsel's slots into the accumulators: slot occupancy
// first (the row count, or the one-byte seen flag when no measure needs a
// count), then one loop per measure column. Each column adds its rows to
// each slot in row order, so a sum is the same at any measure count. One
// loop per column also builds SSB's three-sum views faster than one pass
// fused over the sums (docs/performance.md).
func (sq *scanQuery) accum(t *aggTable, dk []uint64, sel []int32, cols storage.BlockCols, lo int) {
	if t.cnt != nil {
		for _, k := range dk {
			t.cnt[k]++
		}
	} else {
		seen := t.seen
		for _, k := range dk {
			if !seen[k] {
				seen[k] = true
			}
		}
	}
	for j, mi := range sq.measures {
		col := cols.Meas[mi]
		acc := t.vals[j]
		switch sq.ops[j] {
		case mdm.AggSum, mdm.AggAvg:
			if sel == nil {
				for i, k := range dk {
					acc[k] += col[lo+i]
				}
			} else {
				for i, k := range dk {
					acc[k] += col[sel[i]]
				}
			}
		case mdm.AggMin:
			if sel == nil {
				for i, k := range dk {
					acc[k] = math.Min(acc[k], col[lo+i])
				}
			} else {
				for i, k := range dk {
					acc[k] = math.Min(acc[k], col[sel[i]])
				}
			}
		case mdm.AggMax:
			if sel == nil {
				for i, k := range dk {
					acc[k] = math.Max(acc[k], col[lo+i])
				}
			} else {
				for i, k := range dk {
					acc[k] = math.Max(acc[k], col[sel[i]])
				}
			}
		}
	}
}

// merge folds the partial src into dst, slot-wise by operator (untouched
// slots hold the operator's identity, so merging them is a no-op). Dense
// partials share their slots; otherwise src's cells are first looked up —
// or assigned — in dst's slot table.
func (sq *scanQuery) merge(dst, src *aggTable) {
	var at []uint64 // src slot → dst slot; nil when they coincide
	if sq.dense == 0 {
		at = dst.slots.Absorb(src.slots)
		dst.reserve(sq, dst.slots.Len())
	}
	n := src.size()
	if at != nil {
		n = len(at)
	}
	switch {
	case dst.cnt != nil && at == nil:
		for s, c := range src.cnt {
			dst.cnt[s] += c
		}
	case dst.cnt != nil:
		for s, c := range src.cnt[:n] {
			dst.cnt[at[s]] += c
		}
	case at == nil:
		for s, v := range src.seen {
			if v {
				dst.seen[s] = true
			}
		}
	default:
		// Every assigned slot of a slot table saw a row.
		for _, d := range at {
			dst.seen[d] = true
		}
	}
	for j, op := range sq.ops {
		if op == mdm.AggCount {
			continue
		}
		a, b := dst.vals[j], src.vals[j][:n]
		switch {
		case op == mdm.AggMin && at == nil:
			for s, v := range b {
				a[s] = math.Min(a[s], v)
			}
		case op == mdm.AggMin:
			for s, v := range b {
				a[at[s]] = math.Min(a[at[s]], v)
			}
		case op == mdm.AggMax && at == nil:
			for s, v := range b {
				a[s] = math.Max(a[s], v)
			}
		case op == mdm.AggMax:
			for s, v := range b {
				a[at[s]] = math.Max(a[at[s]], v)
			}
		case at == nil:
			for s, v := range b {
				a[s] += v
			}
		default:
			for s, v := range b {
				a[at[s]] += v
			}
		}
	}
}

// mergeTree folds the per-worker partials in a log-depth tree: every
// round merges the back half into the front half concurrently, so the
// critical path is ⌈log2 n⌉ merges instead of n-1. Workers that never
// claimed a morsel left a nil partial; no partial at all yields an empty
// table.
func (sq *scanQuery) mergeTree(parts []*aggTable) *aggTable {
	parts = slices.DeleteFunc(parts, func(t *aggTable) bool { return t == nil })
	if len(parts) == 0 {
		return sq.newTable()
	}
	for n := len(parts); n > 1; {
		half := n / 2
		var wg sync.WaitGroup
		for i := 1; i < half; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sq.merge(parts[i], parts[n-1-i])
			}(i)
		}
		sq.merge(parts[0], parts[n-1])
		wg.Wait()
		n -= half
	}
	return parts[0]
}

// cells counts the slots that saw a row.
func (sq *scanQuery) cells(t *aggTable) int {
	if sq.dense == 0 {
		return t.slots.Len()
	}
	n := 0
	for _, c := range t.cnt {
		if c != 0 {
			n++
		}
	}
	for _, ok := range t.seen {
		if ok {
			n++
		}
	}
	return n
}

// occupied lists the slots that saw a row in ascending composite-key
// order, which is coordinate-lexicographic and independent of morsel
// scheduling. Dense slots are keys, so a counting pass sizes the list
// exactly and a second fills it; a slot table sorts its slots, all of
// them occupied.
func (sq *scanQuery) occupied(t *aggTable) []int {
	if sq.dense == 0 {
		return t.slots.Sorted()
	}
	slots := make([]int, 0, sq.cells(t))
	for slot, c := range t.cnt {
		if c != 0 {
			slots = append(slots, slot)
		}
	}
	for slot, ok := range t.seen {
		if ok {
			slots = append(slots, slot)
		}
	}
	return slots
}

// finalize materializes the occupied slots as a derived cube, assembled
// column by column: one slice per group position and per measure, whatever
// the cell count.
func (sq *scanQuery) finalize(s *mdm.Schema, names []string, t *aggTable) (*cube.Cube, error) {
	slots := sq.occupied(t)
	return cube.Build(s, sq.group, names, len(slots), sq.keys(t, slots), sq.columns(t, slots))
}

// keys decodes each slot's composite key back into the member ids of its
// coordinate, one column per group position.
func (sq *scanQuery) keys(t *aggTable, slots []int) [][]int32 {
	keys := make([][]int32, len(sq.group))
	for gi := range keys {
		col := make([]int32, len(slots))
		for i, slot := range slots {
			if sq.dense > 0 {
				col[i] = sq.space.Member(uint64(slot), gi)
			} else {
				col[i] = t.slots.Member(slot, gi)
			}
		}
		keys[gi] = col
	}
	return keys
}

// wholeTable rebuilds a dense table every slot of which is occupied from
// the columns columns read off it (the slots are then 0, 1, 2, …): a sum,
// min or max accumulator is its column, the counts are a count column.
// An average is not invertible, so sq's operators must have none.
func (sq *scanQuery) wholeTable(cols [][]float64) *aggTable {
	t := sq.newTable()
	for j, op := range sq.ops {
		if op != mdm.AggCount {
			copy(t.vals[j], cols[j])
			continue
		}
		for s, c := range cols[j] {
			t.cnt[s] = int64(c)
		}
	}
	for s := range t.seen {
		t.seen[s] = true
	}
	return t
}

// columns reads each operator's finished value off the slots' accumulators.
// When every slot of the table is occupied the slots are 0, 1, 2, … and a
// sum, min or max column is the accumulator column copied whole; a view
// refresh pays this once per read that races an append, so it matters.
func (sq *scanQuery) columns(t *aggTable, slots []int) [][]float64 {
	whole := sq.dense > 0 && len(slots) == sq.dense
	cols := make([][]float64, len(sq.ops))
	for j, op := range sq.ops {
		if whole && op != mdm.AggAvg && op != mdm.AggCount {
			cols[j] = slices.Clone(t.vals[j])
			continue
		}
		col := make([]float64, len(slots))
		switch op {
		case mdm.AggAvg:
			for i, slot := range slots {
				col[i] = t.vals[j][slot] / float64(t.cnt[slot])
			}
		case mdm.AggCount:
			for i, slot := range slots {
				col[i] = float64(t.cnt[slot])
			}
		default:
			for i, slot := range slots {
				col[i] = t.vals[j][slot]
			}
		}
		cols[j] = col
	}
	return cols
}
