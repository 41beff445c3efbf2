package engine

import (
	"math"
	"math/bits"
	"sync"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Vectorized dense-key aggregation kernels. Level columns are already
// dictionary-encoded, so a scan's group-by set maps to a dense integer
// key space: the composite key of a row is the mixed-radix number formed
// by its group-level member ids, and the whole space has
// Π |Dom(g_i)| slots. When that product fits the engine's slot budget,
// the scan aggregates into flat accumulator arrays indexed by composite
// key — block-at-a-time loops over selection vectors, no hashing, no
// per-row allocation — and falls back to the hash tables of parallel.go
// otherwise. Dense and hash kernels agree bit-exactly on integer-valued
// measures (integer sums are exact in float64 regardless of order),
// which the differential oracle cross-checks per query.

// DefaultDenseKeyBudget is the default maximum number of dense key-space
// slots (per worker) before a scan falls back to hash aggregation. Each
// slot costs 8 bytes per requested measure plus an 8-byte row count, per
// worker, for the duration of the scan.
const DefaultDenseKeyBudget = 1 << 20

// DefaultMorselSize is the default number of fact rows per morsel, the
// unit of work claimed by scan workers (see parallel.go).
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

// denseLayout is the mixed-radix layout of a dense composite key space:
// coordinate digit gi of slot s is (s / stride[gi]) % card[gi].
type denseLayout struct {
	card   []int // |Dom(g_i)| per group position
	stride []int // Π card[gi+1:]
	slots  int   // Π card, ≤ the engine budget
}

// denseLayout returns the dense key-space layout for the scan's group-by
// set, or nil when a level domain is empty or the space exceeds budget
// (including multiplicative overflow: the check is budget/card, never
// the raw product).
func (p *preparedScan) denseLayout(budget int) *denseLayout {
	if budget <= 0 {
		return nil
	}
	n := len(p.q.Group)
	l := &denseLayout{card: make([]int, n), stride: make([]int, n), slots: 1}
	for gi := n - 1; gi >= 0; gi-- {
		card := p.cards[gi]
		if card == 0 || l.slots > budget/card {
			return nil
		}
		l.card[gi] = card
		l.stride[gi] = l.slots
		l.slots *= card
	}
	return l
}

// denseState is one worker's accumulator arrays over the key space. All
// measures of a cell see the same accepted rows, so one row count per
// slot serves every requested measure (and decides slot occupancy).
// Scans with no count- or avg-valued measure don't need the count at
// all: a one-byte seen flag per slot tracks occupancy instead, which
// keeps the occupancy array 8x smaller and turns the per-row
// count increment into a mostly-not-taken branch.
type denseState struct {
	vals [][]float64 // per requested measure; nil for count measures
	cnt  []int64     // accepted rows per slot; nil when seen suffices
	seen []bool      // slot occupancy when no measure needs a count
	// touched records slots in first-seen order on serial scans, so the
	// dense path emits cells in exactly the order the hash path would.
	// Parallel scans leave it nil and emit in ascending key order.
	touched []int
}

func (p *preparedScan) newDenseState(l *denseLayout, trackOrder bool) *denseState {
	st := &denseState{vals: make([][]float64, len(p.q.Measures))}
	needCnt := false
	for j := range p.q.Measures {
		if p.ops[j] == mdm.AggCount || p.ops[j] == mdm.AggAvg {
			needCnt = true
		}
	}
	if needCnt {
		st.cnt = make([]int64, l.slots)
	} else {
		st.seen = make([]bool, l.slots)
	}
	for j := range p.q.Measures {
		switch p.ops[j] {
		case mdm.AggCount:
			continue // finalized from cnt
		case mdm.AggMin, mdm.AggMax:
			a := make([]float64, l.slots)
			init := math.Inf(1)
			if p.ops[j] == mdm.AggMax {
				init = math.Inf(-1)
			}
			for s := range a {
				a[s] = init
			}
			st.vals[j] = a
		default:
			st.vals[j] = make([]float64, l.slots)
		}
	}
	if trackOrder {
		st.touched = make([]int, 0, 1024)
	}
	return st
}

// morselScratch is per-worker reusable kernel memory: the selection
// vector of accepted row indices, the dense keys aligned with it, the
// block decode buffers for segment-backed scans, and the coordinate
// buffer of the hash path.
type morselScratch struct {
	sel   []int
	dk    []int
	block storage.BlockScratch
	coord mdm.Coordinate
	// lv holds a shared scan's pooled level-code columns for the current
	// morsel (see levelShare in shared.go).
	lv [][]int32
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

func putScratch(sc *morselScratch) {
	for i := range sc.lv {
		sc.lv[i] = nil // drop refs into a scan's level-share pool
	}
	scratchPool.Put(sc)
}

// hasPreds reports whether any hierarchy carries an acceptance vector.
func (p *preparedScan) hasPreds() bool {
	for _, acc := range p.accepts {
		if acc != nil {
			return true
		}
	}
	return false
}

// selection evaluates the scan predicates once over the block-local
// morsel [lo, hi) into a reusable selection vector of accepted row
// indices: the first predicated hierarchy fills the vector, later ones
// compact it in place. When the backend already evaluated the predicates
// (cols.Sel non-nil, late materialization), the vector is read straight
// off the selection bitmap — same rows, same ascending order — and the
// acceptance vectors are not re-evaluated.
func (p *preparedScan) selection(sc *morselScratch, cols storage.BlockCols, lo, hi int) []int {
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
	for h, acc := range p.accepts {
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

// predSel evaluates the scan's acceptance vectors over every row of a
// decoded block into a selection bitmap. Shared scans open their union
// source predicate-free, so each predicated query derives its own
// per-block bitmap engine-side once per decode and the morsel kernels
// consume it through the same cols.Sel path late materialization uses —
// an empty bitmap skips the query for the whole block. Returns the
// bitmap (reusing buf when it fits) and the surviving-row count; callers
// must guard with hasPreds.
func (p *preparedScan) predSel(cols storage.BlockCols, buf []uint64) ([]uint64, int) {
	words := (cols.Rows + 63) >> 6
	if cap(buf) < words {
		buf = make([]uint64, words)
	}
	buf = buf[:words]
	first := true
	count := 0
	for h, acc := range p.accepts {
		if acc == nil {
			continue
		}
		col := cols.Keys[h]
		count = 0
		if first {
			first = false
			for wi := range buf {
				base := wi << 6
				m := cols.Rows - base
				if m > 64 {
					m = 64
				}
				var word uint64
				for j := 0; j < m; j++ {
					if acc[col[base+j]] {
						word |= 1 << uint(j)
					}
				}
				buf[wi] = word
				count += bits.OnesCount64(word)
			}
			continue
		}
		for wi, word := range buf {
			if word == 0 {
				continue
			}
			base := wi << 6
			for t := word; t != 0; t &= t - 1 {
				j := bits.TrailingZeros64(t)
				if !acc[col[base+j]] {
					word &^= 1 << uint(j)
				}
			}
			buf[wi] = word
			count += bits.OnesCount64(word)
		}
	}
	return buf, count
}

// denseMorsel aggregates one morsel into the worker's dense state:
// selection vector (skipped entirely on unpredicated scans), then
// composite keys column-at-a-time, then one tight loop per requested
// measure. sel == nil means the identity selection over [lo, hi).
func (p *preparedScan) denseMorsel(st *denseState, l *denseLayout, sc *morselScratch, cols storage.BlockCols, lo, hi int) {
	var sel []int
	n := hi - lo
	if cols.Sel != nil {
		// The backend filtered rows already; SelCount == Rows means every
		// row survived and the identity selection stands.
		if cols.SelCount < cols.Rows {
			sel = p.selection(sc, cols, lo, hi)
			n = len(sel)
			if n == 0 {
				return
			}
		}
	} else if p.hasPreds() {
		sel = p.selection(sc, cols, lo, hi)
		n = len(sel)
		if n == 0 {
			return
		}
	}
	if cap(sc.dk) < n {
		sc.dk = make([]int, n)
	}
	dk := sc.dk[:n]
	if len(p.q.Group) == 0 {
		for i := range dk {
			dk[i] = 0
		}
	}
	// The first group position initializes dk (no clear pass); later
	// positions accumulate into it.
	for gi, ref := range p.q.Group {
		gm := p.gmaps[gi]
		keys := cols.Keys[ref.Hier]
		stride := l.stride[gi]
		switch {
		case sel == nil && gi == 0 && stride == 1:
			for i := range dk {
				dk[i] = int(gm[keys[lo+i]])
			}
		case sel == nil && gi == 0:
			for i := range dk {
				dk[i] = int(gm[keys[lo+i]]) * stride
			}
		case sel == nil && stride == 1:
			for i := range dk {
				dk[i] += int(gm[keys[lo+i]])
			}
		case sel == nil:
			for i := range dk {
				dk[i] += int(gm[keys[lo+i]]) * stride
			}
		case gi == 0 && stride == 1:
			for i, r := range sel {
				dk[i] = int(gm[keys[r]])
			}
		case gi == 0:
			for i, r := range sel {
				dk[i] = int(gm[keys[r]]) * stride
			}
		case stride == 1:
			for i, r := range sel {
				dk[i] += int(gm[keys[r]])
			}
		default:
			for i, r := range sel {
				dk[i] += int(gm[keys[r]]) * stride
			}
		}
	}
	p.denseAccum(st, dk, sel, cols, lo)
}

// denseMorselShared is denseMorsel for an unpredicated query inside a
// shared scan: group positions with a pooled level column (share[gi] >= 0
// indexes lv) compose their dense keys from the pre-mapped codes instead
// of re-walking the query's own rollup map row by row.
func (p *preparedScan) denseMorselShared(st *denseState, l *denseLayout, sc *morselScratch, cols storage.BlockCols, lo, hi int, lv [][]int32, share []int) {
	n := hi - lo
	if cap(sc.dk) < n {
		sc.dk = make([]int, n)
	}
	dk := sc.dk[:n]
	if len(p.q.Group) == 0 {
		for i := range dk {
			dk[i] = 0
		}
	}
	// The first group position initializes dk (no clear pass); later
	// positions accumulate into it.
	for gi, ref := range p.q.Group {
		stride := l.stride[gi]
		if si := share[gi]; si >= 0 {
			col := lv[si]
			switch {
			case gi == 0 && stride == 1:
				for i := range dk {
					dk[i] = int(col[i])
				}
			case gi == 0:
				for i := range dk {
					dk[i] = int(col[i]) * stride
				}
			case stride == 1:
				for i := range dk {
					dk[i] += int(col[i])
				}
			default:
				for i := range dk {
					dk[i] += int(col[i]) * stride
				}
			}
			continue
		}
		gm := p.gmaps[gi]
		keys := cols.Keys[ref.Hier]
		switch {
		case gi == 0 && stride == 1:
			for i := range dk {
				dk[i] = int(gm[keys[lo+i]])
			}
		case gi == 0:
			for i := range dk {
				dk[i] = int(gm[keys[lo+i]]) * stride
			}
		case stride == 1:
			for i := range dk {
				dk[i] += int(gm[keys[lo+i]])
			}
		default:
			for i := range dk {
				dk[i] += int(gm[keys[lo+i]]) * stride
			}
		}
	}
	p.denseAccum(st, dk, nil, cols, lo)
}

// denseAccum folds one morsel's composite keys into the accumulators:
// slot row counts first, then the measure columns. Two or three
// sum-valued measures (sum/avg) are accumulated in one fused pass — the
// composite key loads once per row however many measures ride the scan —
// which changes nothing about per-slot addition order, so results stay
// bit-identical to the per-measure loops.
func (p *preparedScan) denseAccum(st *denseState, dk []int, sel []int, cols storage.BlockCols, lo int) {
	var a0, a1, a2, c0, c1, c2 []float64
	ns := 0
	fused := true
	for j, mi := range p.q.Measures {
		if p.ops[j] != mdm.AggSum && p.ops[j] != mdm.AggAvg {
			continue
		}
		switch ns {
		case 0:
			a0, c0 = st.vals[j], cols.Meas[mi]
		case 1:
			a1, c1 = st.vals[j], cols.Meas[mi]
		case 2:
			a2, c2 = st.vals[j], cols.Meas[mi]
		default:
			fused = false
		}
		ns++
	}
	fused = fused && ns >= 2
	switch {
	case !fused && st.cnt != nil:
		if st.touched != nil {
			for _, k := range dk {
				if st.cnt[k] == 0 {
					st.touched = append(st.touched, k)
				}
				st.cnt[k]++
			}
		} else {
			for _, k := range dk {
				st.cnt[k]++
			}
		}
	case !fused:
		seen := st.seen
		if st.touched != nil {
			for _, k := range dk {
				if !seen[k] {
					seen[k] = true
					st.touched = append(st.touched, k)
				}
			}
		} else {
			for _, k := range dk {
				if !seen[k] {
					seen[k] = true
				}
			}
		}
	case st.cnt != nil:
		// Occupancy rides the fused pass: one composite-key load per row
		// covers the row count and every sum column.
		cnt := st.cnt
		switch {
		case sel == nil && ns == 3 && st.touched == nil:
			for i, k := range dk {
				r := lo + i
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		case sel == nil && st.touched == nil:
			for i, k := range dk {
				r := lo + i
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
			}
		case sel == nil && ns == 3:
			for i, k := range dk {
				r := lo + i
				if cnt[k] == 0 {
					st.touched = append(st.touched, k)
				}
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		default:
			for i, k := range dk {
				r := lo + i
				if sel != nil {
					r = sel[i]
				}
				if st.touched != nil && cnt[k] == 0 {
					st.touched = append(st.touched, k)
				}
				cnt[k]++
				a0[k] += c0[r]
				a1[k] += c1[r]
				if ns == 3 {
					a2[k] += c2[r]
				}
			}
		}
	default:
		seen := st.seen
		switch {
		case sel == nil && ns == 3 && st.touched == nil:
			for i, k := range dk {
				r := lo + i
				if !seen[k] {
					seen[k] = true
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		case sel == nil && st.touched == nil:
			for i, k := range dk {
				r := lo + i
				if !seen[k] {
					seen[k] = true
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
			}
		case sel == nil && ns == 3:
			for i, k := range dk {
				r := lo + i
				if !seen[k] {
					seen[k] = true
					st.touched = append(st.touched, k)
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
				a2[k] += c2[r]
			}
		default:
			for i, k := range dk {
				r := lo + i
				if sel != nil {
					r = sel[i]
				}
				if !seen[k] {
					seen[k] = true
					if st.touched != nil {
						st.touched = append(st.touched, k)
					}
				}
				a0[k] += c0[r]
				a1[k] += c1[r]
				if ns == 3 {
					a2[k] += c2[r]
				}
			}
		}
	}
	for j, mi := range p.q.Measures {
		op := p.ops[j]
		if fused && (op == mdm.AggSum || op == mdm.AggAvg) {
			continue
		}
		col := cols.Meas[mi]
		acc := st.vals[j]
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

// mergeDense folds src into dst with flat array sums (element-wise min
// and max for those operators; untouched slots hold the operator's
// identity, so merging them is a no-op).
func (p *preparedScan) mergeDense(dst, src *denseState) {
	if dst.cnt != nil {
		for s, n := range src.cnt {
			dst.cnt[s] += n
		}
	} else {
		for s, v := range src.seen {
			if v {
				dst.seen[s] = true
			}
		}
	}
	for j := range p.q.Measures {
		a, b := dst.vals[j], src.vals[j]
		switch p.ops[j] {
		case mdm.AggSum, mdm.AggAvg:
			for s, v := range b {
				a[s] += v
			}
		case mdm.AggMin:
			for s, v := range b {
				a[s] = math.Min(a[s], v)
			}
		case mdm.AggMax:
			for s, v := range b {
				a[s] = math.Max(a[s], v)
			}
		}
	}
}

// occupied lists the slots that saw a row, in ascending order (one of cnt
// and seen is nil). The counting pass sizes the list exactly: one
// allocation for any result.
func (st *denseState) occupied() []int {
	n := 0
	for _, c := range st.cnt {
		if c != 0 {
			n++
		}
	}
	for _, ok := range st.seen {
		if ok {
			n++
		}
	}
	slots := make([]int, 0, n)
	for slot, c := range st.cnt {
		if c != 0 {
			slots = append(slots, slot)
		}
	}
	for slot, ok := range st.seen {
		if ok {
			slots = append(slots, slot)
		}
	}
	return slots
}

// finalizeDense materializes the occupied slots as a derived cube,
// decoding each composite key back into its coordinate. Serial scans
// emit in first-seen order (st.touched), matching the hash path cell for
// cell; parallel scans emit in ascending key order, which is coordinate-
// lexicographic and independent of morsel scheduling. The cube is
// assembled column by column: one coordinate arena and one slice per
// measure, whatever the cell count.
func (p *preparedScan) finalizeDense(s *mdm.Schema, names []string, l *denseLayout, st *denseState) (*cube.Cube, error) {
	slots := st.touched
	if slots == nil {
		slots = st.occupied()
	}
	width := len(p.q.Group)
	space := mdm.NewKeySpace(l.card)
	coords := cube.Carve(make([]int32, len(slots)*width), len(slots), width)
	for i, slot := range slots {
		space.Decode(uint64(slot), coords[i])
	}
	cols := make([][]float64, len(p.q.Measures))
	for j := range p.q.Measures {
		col := make([]float64, len(slots))
		switch p.ops[j] {
		case mdm.AggAvg:
			for i, slot := range slots {
				col[i] = st.vals[j][slot] / float64(st.cnt[slot])
			}
		case mdm.AggCount:
			for i, slot := range slots {
				col[i] = float64(st.cnt[slot])
			}
		default:
			for i, slot := range slots {
				col[i] = st.vals[j][slot]
			}
		}
		cols[j] = col
	}
	return cube.Build(s, p.q.Group, names, coords, cols)
}

// runDenseSerial scans the fact data block by block, morsel by morsel,
// on the calling goroutine, reusing one scratch across morsels. Blocks
// pruned by zone maps are skipped before decode; pruning preserves the
// first-seen cell order because a pruned block holds no accepted rows.
func (p *preparedScan) runDenseSerial(l *denseLayout, morsel int) (*denseState, error) {
	st := p.newDenseState(l, true)
	sc := getScratch()
	defer putScratch(sc)
	n := int64(0)
	for b := 0; b < p.src.Blocks(); b++ {
		cols, ok, err := p.src.Block(b, &sc.block)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for lo := 0; lo < cols.Rows; lo += morsel {
			hi := min(lo+morsel, cols.Rows)
			p.denseMorsel(st, l, sc, cols, lo, hi)
			n++
		}
	}
	mMorsels.Add(n)
	return st, nil
}
