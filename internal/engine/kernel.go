package engine

import (
	"cmp"
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
// space fits the engine's slot budget the slot IS the key (dense); when
// it does not, an open-addressing table hands out compact slots in
// first-seen order and grows the same columns (hash). Accumulate, merge
// and finalize are shared; the two differ in slot lookup only, and agree
// bit-exactly on integer-valued measures (integer sums are exact in
// float64 regardless of order), which the differential oracle
// cross-checks per query.

// DefaultDenseKeyBudget is the default maximum number of dense key-space
// slots (per worker) before a scan falls back to the slot table. Each
// slot costs 8 bytes per requested measure plus an 8-byte row count, per
// worker, for the duration of the scan.
const DefaultDenseKeyBudget = 1 << 20

// DefaultMorselSize is the default number of fact rows per morsel, the
// unit of work claimed by scan workers (see scan.go).
const DefaultMorselSize = 64 * 1024

// SetDenseKeyBudget sets the dense key-space slot budget: a scan whose
// group-by key space has more slots than the budget uses the hash
// fallback. 0 disables the dense kernels entirely; negative values
// restore DefaultDenseKeyBudget.
func (e *Engine) SetDenseKeyBudget(slots int) {
	switch {
	case slots > 0:
		e.denseBudget = slots
	case slots == 0:
		e.denseBudget = -1
	default:
		e.denseBudget = 0
	}
}

// denseKeyBudget returns the effective slot budget (0 = dense disabled).
func (e *Engine) denseKeyBudget() int {
	switch {
	case e.denseBudget == 0:
		return DefaultDenseKeyBudget
	case e.denseBudget < 0:
		return 0
	}
	return e.denseBudget
}

// SetMorselSize sets the number of fact rows per scan morsel (values
// below 1 restore DefaultMorselSize). Smaller morsels balance skewed
// predicate work across workers at the cost of more queue traffic.
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
// level domain is empty and the space fits the budget (the check is
// budget/card, never the raw product, so it cannot overflow).
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
	if budget <= 0 {
		return
	}
	slots := 1
	for _, card := range cards {
		if card == 0 || slots > budget/card {
			return
		}
		slots *= card
	}
	sq.dense = slots
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
// key space from the start. Otherwise the slot table below assigns the
// next free slot to each key it has not met, and the columns grow with
// it; slots never move once assigned.
type aggTable struct {
	vals [][]float64 // per requested measure; nil for count measures
	cnt  []int64     // accepted rows per slot; nil when seen suffices
	seen []bool      // slot occupancy when no measure needs a count

	keys  []uint64 // slot → composite key
	index []int32  // open addressing over keys: bucket → slot+1, 0 = empty
	shift uint     // 64 - log2(len(index))
	// Key spaces past 64 bits have no composite key: slots are found by
	// the coordinate's byte-string key and remember their coordinate.
	wide   map[string]int32
	coords []int32 // slot-major
}

// newTable returns an empty partial for the query.
func (sq *scanQuery) newTable() *aggTable {
	t := &aggTable{vals: make([][]float64, len(sq.ops))}
	switch {
	case sq.dense > 0:
		t.grow(sq, sq.dense)
	case sq.space.Wide():
		t.wide = make(map[string]int32)
	default:
		t.index = make([]int32, 1<<10)
		t.shift = 64 - 10
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

// fibHash is 2^64 / φ: multiplying by it and keeping the top bits spreads
// the mixed-radix keys, whose low digits are the last group level, over
// the buckets.
const fibHash = 0x9E3779B97F4A7C15

// slots translates composite keys into slots in place, assigning the next
// free slot to every key it meets for the first time; collisions probe
// linearly.
func (t *aggTable) slots(dk []uint64) {
	for i, k := range dk {
		mask := len(t.index) - 1
		for h := int(k * fibHash >> t.shift); ; h = (h + 1) & mask {
			s := t.index[h]
			if s == 0 {
				t.keys = append(t.keys, k)
				s = int32(len(t.keys))
				t.index[h] = s
				if 2*len(t.keys) > len(t.index) {
					t.rehash()
				}
			} else if t.keys[s-1] != k {
				continue
			}
			dk[i] = uint64(s - 1)
			break
		}
	}
}

// rehash doubles the bucket array and re-inserts every slot under its
// key; the slots themselves — and so the columns — stay where they are.
func (t *aggTable) rehash() {
	t.shift--
	t.index = make([]int32, 2*len(t.index))
	mask := len(t.index) - 1
	for s, k := range t.keys {
		h := int(k * fibHash >> t.shift)
		for t.index[h] != 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(s + 1)
	}
}

// wideSlot is slots for one coordinate of a key space past 64 bits.
func (t *aggTable) wideSlot(coord mdm.Coordinate) uint64 {
	key := mdm.WideKey(coord, nil)
	s, ok := t.wide[key]
	if !ok {
		s = int32(len(t.wide))
		t.wide[key] = s
		t.coords = append(t.coords, coord...)
	}
	return uint64(s)
}

// morselScratch is per-worker reusable kernel memory: the selection
// vector of accepted row indices, the composite keys (then slots) aligned
// with it, the block decode buffers for segment-backed scans, and the
// coordinate buffer of wide key spaces.
type morselScratch struct {
	sel   []int
	dk    []uint64
	block storage.BlockScratch
	coord mdm.Coordinate
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

// selection evaluates the scan predicates once over the block-local
// morsel [lo, hi) into a reusable selection vector of accepted row
// indices: the first predicated hierarchy fills the vector, later ones
// compact it in place. When the backend already evaluated the predicates
// (cols.Sel non-nil: late materialization), the vector is read straight
// off the selection bitmap — same rows, same ascending order — and the
// acceptance vectors are not re-evaluated.
func (sq *scanQuery) selection(sc *morselScratch, cols storage.BlockCols, lo, hi int) []int {
	if cols.Sel != nil {
		sc.sel = storage.AppendSelIndices(sc.sel[:0], cols.Sel, lo, hi)
		return sc.sel
	}
	if cap(sc.sel) < hi-lo {
		sc.sel = make([]int, hi-lo)
	}
	sel := sc.sel[:hi-lo]
	first := true
	n := 0
	for h, acc := range sq.accepts {
		if acc == nil {
			continue
		}
		keys := cols.Keys[h]
		if first {
			for r := lo; r < hi; r++ {
				if acc[keys[r]] {
					sel[n] = r
					n++
				}
			}
			first = false
			continue
		}
		kept := 0
		for _, r := range sel[:n] {
			if acc[keys[r]] {
				sel[kept] = r
				kept++
			}
		}
		n = kept
	}
	return sel[:n]
}

// morsel aggregates rows [lo, hi) of a block into the table: selection
// vector (skipped entirely when every row is accepted), composite keys,
// slot lookup off the dense path, then accumulate.
func (sq *scanQuery) morsel(t *aggTable, sc *morselScratch, cols storage.BlockCols, lo, hi int) {
	var sel []int
	n := hi - lo
	// A bitmap with SelCount == Rows means every row survived and the
	// identity selection stands.
	if (cols.Sel != nil && cols.SelCount < cols.Rows) || (cols.Sel == nil && sq.filtered) {
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
		sq.wideSlots(t, sc, dk, sel, cols, lo)
		t.reserve(sq, len(t.wide))
	} else {
		sq.compositeKeys(dk, sel, cols, lo)
		if sq.dense == 0 {
			t.slots(dk)
			t.reserve(sq, len(t.keys))
		}
	}
	sq.accum(t, dk, sel, cols, lo)
}

// compositeKeys fills dk with the composite key of every selected row,
// one group position at a time: the first initializes dk (no clear pass),
// later positions accumulate into it. sel == nil means the identity
// selection starting at row lo.
func (sq *scanQuery) compositeKeys(dk []uint64, sel []int, cols storage.BlockCols, lo int) {
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
func (sq *scanQuery) wideSlots(t *aggTable, sc *morselScratch, dk []uint64, sel []int, cols storage.BlockCols, lo int) {
	if cap(sc.coord) < len(sq.group) {
		sc.coord = make(mdm.Coordinate, len(sq.group))
	}
	coord := sc.coord[:len(sq.group)]
	for i := range dk {
		r := lo + i
		if sel != nil {
			r = sel[i]
		}
		for gi, ref := range sq.group {
			coord[gi] = sq.gmaps[gi][cols.Keys[ref.Hier][r]]
		}
		dk[i] = t.wideSlot(coord)
	}
}

// accum folds one morsel's slots into the accumulators: slot row counts
// first, then the measure columns. Two or three sum-valued measures
// (sum/avg) are accumulated in one fused pass — the slot loads once per
// row however many measures ride the scan — which changes nothing about
// per-slot addition order, so results stay bit-identical to the
// per-measure loops.
func (sq *scanQuery) accum(t *aggTable, dk []uint64, sel []int, cols storage.BlockCols, lo int) {
	var a0, a1, a2, c0, c1, c2 []float64
	ns := 0
	for j, mi := range sq.measures {
		if sq.ops[j] != mdm.AggSum && sq.ops[j] != mdm.AggAvg {
			continue
		}
		switch ns {
		case 0:
			a0, c0 = t.vals[j], cols.Meas[mi]
		case 1:
			a1, c1 = t.vals[j], cols.Meas[mi]
		case 2:
			a2, c2 = t.vals[j], cols.Meas[mi]
		}
		ns++
	}
	fused := ns == 2 || ns == 3
	switch {
	case !fused && t.cnt != nil:
		for _, k := range dk {
			t.cnt[k]++
		}
	case !fused:
		seen := t.seen
		for _, k := range dk {
			if !seen[k] {
				seen[k] = true
			}
		}
	case t.cnt != nil:
		// Occupancy rides the fused pass: one slot load per row covers
		// the row count and every sum column.
		cnt := t.cnt
		switch {
		case sel == nil && ns == 3:
			for i, k := range dk {
				r := lo + i
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		case sel == nil:
			for i, k := range dk {
				r := lo + i
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
			}
		default:
			for i, k := range dk {
				r := sel[i]
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
				if ns == 3 {
					a2[k] += c2[r]
				}
			}
		}
	default:
		seen := t.seen
		switch {
		case sel == nil && ns == 3:
			for i, k := range dk {
				r := lo + i
				if !seen[k] {
					seen[k] = true
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		case sel == nil:
			for i, k := range dk {
				r := lo + i
				if !seen[k] {
					seen[k] = true
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
			}
		default:
			for i, k := range dk {
				r := sel[i]
				if !seen[k] {
					seen[k] = true
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
				if ns == 3 {
					a2[k] += c2[r]
				}
			}
		}
	}
	for j, mi := range sq.measures {
		op := sq.ops[j]
		if fused && (op == mdm.AggSum || op == mdm.AggAvg) {
			continue
		}
		col := cols.Meas[mi]
		acc := t.vals[j]
		switch op {
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
	switch {
	case src.wide != nil:
		w := len(sq.group)
		at = make([]uint64, len(src.wide))
		for s := range at {
			at[s] = dst.wideSlot(src.coords[s*w : (s+1)*w])
		}
		dst.reserve(sq, len(dst.wide))
	case sq.dense == 0:
		at = slices.Clone(src.keys)
		dst.slots(at)
		dst.reserve(sq, len(dst.keys))
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
		return max(len(t.keys), len(t.wide))
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
// exactly and a second fills it; slot tables sort their slots — all of
// them occupied — by key, or by coordinate when the space is wide.
func (sq *scanQuery) occupied(t *aggTable) []int {
	if sq.dense == 0 {
		slots := make([]int, sq.cells(t))
		for s := range slots {
			slots[s] = s
		}
		if w := len(sq.group); t.wide != nil {
			slices.SortFunc(slots, func(a, b int) int {
				return slices.Compare(t.coords[a*w:(a+1)*w], t.coords[b*w:(b+1)*w])
			})
		} else {
			slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(t.keys[a], t.keys[b]) })
		}
		return slots
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

// finalize materializes the occupied slots as a derived cube. The cube is
// assembled column by column: one coordinate arena and one slice per
// measure, whatever the cell count.
func (sq *scanQuery) finalize(s *mdm.Schema, names []string, t *aggTable) (*cube.Cube, error) {
	slots := sq.occupied(t)
	return cube.Build(s, sq.group, names, sq.coords(t, slots), sq.columns(t, slots))
}

// coords decodes each slot's composite key back into its coordinate.
func (sq *scanQuery) coords(t *aggTable, slots []int) []mdm.Coordinate {
	width := len(sq.group)
	coords := cube.Carve(make([]int32, len(slots)*width), len(slots), width)
	for i, slot := range slots {
		switch {
		case t.wide != nil:
			copy(coords[i], t.coords[slot*width:])
		case sq.dense > 0:
			sq.space.Decode(uint64(slot), coords[i])
		default:
			sq.space.Decode(t.keys[slot], coords[i])
		}
	}
	return coords
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
