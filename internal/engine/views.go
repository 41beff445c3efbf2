package engine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Materialized views. The paper's prototype runs over Oracle with
// materialized views "created to improve performances" (Section 6), so
// repeated cube queries cost on the order of the aggregate's size, not
// of the fact table's. Materialize pre-aggregates a fact table at a
// group-by set; the aggregate navigator (navigator.go) then answers any
// query whose group-by set is reachable by roll-up from the view's —
// exact matches by a filter over |view| cells, coarser queries by
// re-aggregating the view's cells through the scan pipeline. A sliced
// query reads only the cells of its members, off the view's member index.

type viewKey struct {
	fact string
	gkey string
}

func groupKey(g mdm.GroupBy) string {
	buf := make([]byte, 0, 8*len(g))
	for _, r := range g {
		buf = append(buf, byte(r.Hier), byte(r.Level))
	}
	return string(buf)
}

// matView is one materialized view as readers see it: the finalized
// aggregate served to exact-match queries, whose key columns are also what
// the navigator feeds the scan kernels to roll its cells up to coarser
// group-by sets, plus the sub-aggregate
// columns the finalized ones were read from (partials.go): AVG is not
// distributive, so a coarser AVG recombines as Σsums/Σcounts, and COUNT
// re-aggregates by summing counts. Everything but the version tag and the
// use counters is immutable: absorbing appended rows publishes a new
// matView, so a reader keeps consistent columns for as long as it holds
// the old one.
type matView struct {
	group mdm.GroupBy
	data  *cube.Cube // key columns and finalized measure columns, one per schema measure
	// parts are the sub-aggregate columns behind data, laid out by acc.p;
	// a measure that is its own sub-aggregate shares its column with data.
	parts [][]float64
	// index holds, per key column of data, the view's cells listed by
	// member (selectCells reads it).
	index []memberIndex
	// bytes approximates resident size, for the admission budget.
	bytes int64
	// rows is the high-water mark: the view aggregates exactly the first
	// rows rows of the fact in append order. It is Rows() of the source
	// that fed the view, never the fact's version, which moves without
	// rows (AdvanceVersion) and ahead of a snapshot taken after reading it.
	rows int
	// factVer is a fact version at which the view held every row; a newer
	// one makes it stale until refreshView has looked past the mark.
	factVer atomic.Uint64
	// auto marks views admitted by the adaptive layer (evictable). It is
	// read and written under the engine's viewMu once the view is
	// published: Materialize promotes an admitted view in place.
	auto bool
	// acc is shared by every matView published for this view.
	acc     *viewAccum
	lastUse atomic.Int64
	hits    atomic.Int64
}

// viewAccum is the state behind a view that absorbing appends updates in
// place: the accumulator table its columns were finalized from. Readers
// never see it; mu serializes the refreshes of the view and guards every
// field but q, p and names, which are fixed at build, and the view's
// current matView is only ever replaced under it.
type viewAccum struct {
	mu sync.Mutex
	// q is the view's build scan: the sub-aggregates p behind every schema
	// measure (named in names), over the whole fact.
	q     Query
	p     *Partials
	names []string
	// sq is the prepared scan t was accumulated through; t holds the
	// view's first rows rows, or is nil when it was not worth keeping:
	// sparse is then set for good, and every later scan goes through a
	// slot table, which is as large as its cells and always kept. A build
	// from row 0 that occupies every slot of a dense table keeps neither
	// table nor slots (whole): the view's parts are its columns and the
	// slots are 0, 1, 2, …, and the first delta rebuilds both, so a view
	// that never sees an append does not hold its accumulators twice.
	sq     *scanQuery
	t      *aggTable
	sparse bool
	whole  bool
	// slots is occupied(t) as of the last finalize. Slots are only ever
	// added, so an unchanged count means an unchanged list, and the key
	// columns derived from it are reused.
	slots []int
}

// viewSizeBytes approximates the heap a view of cells cells holds: a
// member-id column and a member-index column per group level and a
// float64 column per sub-aggregate, plus a finalized column per AVG
// (viewCols). Its cube is never indexed; the member index's offsets and
// a retained accumulator table are charged on top (absorb).
// TestViewBytesFollowHeap holds it against the heap.
func viewSizeBytes(cells, groups, cols int) int64 {
	return int64(cells) * (8*int64(groups) + 8*int64(cols))
}

// memberIndex lists a view's cells by member of one key column, in CSR
// form: the cells whose member is m are cells[offsets[m]:offsets[m+1]],
// in ascending order. It is built with the view it belongs to and never
// changes, so readers take no lock.
type memberIndex struct {
	offsets []int32 // one per member of the column's level, plus one
	cells   []int32
}

// indexMembers indexes a key column whose ids are below members: a
// stable counting sort of the cell positions by member.
func indexMembers(keys []int32, members int) memberIndex {
	ix := memberIndex{offsets: make([]int32, members+1), cells: make([]int32, len(keys))}
	for _, id := range keys {
		ix.offsets[id+1]++
	}
	for m := range members {
		ix.offsets[m+1] += ix.offsets[m]
	}
	next := slices.Clone(ix.offsets[:members])
	for i, id := range keys {
		ix.cells[next[id]] = int32(i)
		next[id]++
	}
	return ix
}

// indexView indexes every key column of a view whose levels have
// cards[vp] members.
func indexView(keys [][]int32, cards []int) []memberIndex {
	index := make([]memberIndex, len(keys))
	for vp, col := range keys {
		index[vp] = indexMembers(col, cards[vp])
	}
	return index
}

// indexBytes is what the index's offsets hold beyond the per-cell entries
// viewSizeBytes charges.
func indexBytes(index []memberIndex) int64 {
	n := 0
	for _, ix := range index {
		n += len(ix.offsets)
	}
	return 4 * int64(n)
}

// indexedShare bounds the cells a roll-up reads off the member index:
// fewer than 1/indexedShare of the view's (rollupFromView). An exact
// answer reads every slice off the index. Measured on the 2-core host
// with every slice forced onto the index, as the linear pass's time over
// the index's (median of 150 paired answers):
//   - exact answers win at every share: 13.4 at 1 % of a 175 000-cell
//     (year, snation, brand) view, 1.90 at 30 %, 1.43 at 60 %; 1.91 at
//     two years in seven of a 42 000-cell (year, customer) view;
//   - roll-ups, whose kernel pass over the kept cells costs as much either
//     way, win 4.25 at 1 %, 1.21 at 10 % and 1.03 at 20 % of the 175 000
//     cells, and read 0.91–0.95 at 25–35 % and 0.81 at 50 %; over the
//     42 000 cells by customer, 1.28 at one year in seven, 0.96–1.02 at
//     two, 0.88–0.99 at 12–32 % of the cells by customer nation.
//
// A third leaves a roll-up at worst about a tenth slower in the band
// between a quarter and a third of the cells.
const indexedShare = 3

// selectCells lists, in ascending order, the view's cells whose member
// in one predicated key column by passes acc, off the member index: the
// column whose accepted members hold the fewest cells. Cells of one
// member are the index's own list, which the caller must not modify;
// several members' are marked in a bitset and swept. ok is false, and
// the caller tests every cell instead, when acc holds no predicate or
// the fewest cells number more than limit. Every predicated call counts
// in assess_engine_view_selects_total by path.
func (v *matView) selectCells(acc [][]bool, limit int) (cells []int32, by int, ok bool) {
	// n cells of column by are accepted; one is their member when a
	// single member holds them all, else -1.
	by, n, one := -1, 0, -1
	for vp, a := range acc {
		if a == nil {
			continue
		}
		ix := v.index[vp]
		c, only := 0, -1
		for m, on := range a[:min(len(a), len(ix.offsets)-1)] {
			k := int(ix.offsets[m+1] - ix.offsets[m])
			if !on || k == 0 {
				continue
			}
			if c == 0 {
				only = m
			} else {
				only = -1
			}
			c += k
		}
		if by < 0 || c < n {
			by, n, one = vp, c, only
		}
	}
	if by < 0 {
		return nil, by, false
	}
	if n > limit {
		mViewSelectLinear.Inc()
		return nil, by, false
	}
	mViewSelectIndex.Inc()
	ix := v.index[by]
	switch {
	case n == 0:
		return []int32{}, by, true
	case one >= 0:
		return ix.cells[ix.offsets[one]:ix.offsets[one+1]], by, true
	}
	words := make([]uint64, (v.data.Len()+63)/64)
	a := acc[by]
	for m, on := range a[:min(len(a), len(ix.offsets)-1)] {
		if on {
			for _, c := range ix.cells[ix.offsets[m]:ix.offsets[m+1]] {
				words[c>>6] |= 1 << (c & 63)
			}
		}
	}
	cells = make([]int32, 0, n)
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			cells = append(cells, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return cells, by, true
}

// viewCols counts the float64 columns of a view over s: a sub-aggregate
// per measure that is not a COUNT, one count column shared by the AVGs
// and COUNTs, and each AVG's finalized column.
func viewCols(s *mdm.Schema) int {
	n, cnt := 0, 0
	for _, m := range s.Measures {
		switch m.Op {
		case mdm.AggCount:
			cnt = 1
		case mdm.AggAvg:
			n, cnt = n+2, 1
		default:
			n++
		}
	}
	return n + cnt
}

// Materialize pre-aggregates the named fact table at the group-by set
// (all measures, no predicates) and registers the result as a view. A
// view the adaptive layer admitted at the set is promoted instead: it is
// never evicted again and leaves the admission budget. Re-materializing
// an explicit view is an error.
func (e *Engine) Materialize(fact string, g mdm.GroupBy) error {
	f, ok := e.facts[fact]
	if !ok {
		return fmt.Errorf("engine: unknown cube %s", fact)
	}
	key := viewKey{fact, groupKey(g)}
	promoted, err := e.promote(key, f.Schema, g)
	if err != nil {
		return err
	}
	if !promoted {
		v, err := e.buildView(fact, f, g, false)
		if err != nil {
			return err
		}
		e.viewMu.Lock()
		raced := e.views[key] != nil
		if !raced {
			e.installView(key, v)
		}
		e.viewMu.Unlock()
		if raced {
			// Admitted or materialized during the build: promote that
			// view, or report it.
			return e.Materialize(fact, g)
		}
	}
	e.gen.Add(1)
	return nil
}

// promote makes the admitted view under key explicit, and reports whether
// there was one; an explicit view there is an error.
func (e *Engine) promote(key viewKey, s *mdm.Schema, g mdm.GroupBy) (bool, error) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v := e.views[key]
	if v == nil {
		return false, nil
	}
	if !v.auto {
		return false, fmt.Errorf("engine: view on %s %s already materialized", key.fact, g.String(s))
	}
	v.auto = false
	e.autoBytes -= v.bytes
	return true, nil
}

// buildView scans the fact table once into a new view.
func (e *Engine) buildView(fact string, f *storage.FactTable, g mdm.GroupBy, auto bool) (*matView, error) {
	a := &viewAccum{}
	all := make([]int, len(f.Schema.Measures))
	ops := make([]mdm.AggOp, len(all))
	for i, m := range f.Schema.Measures {
		all[i], ops[i] = i, m.Op
		a.names = append(a.names, m.Name)
	}
	a.p = Decompose(all, ops)
	a.q = Query{Fact: fact, Group: append(mdm.GroupBy(nil), g...), Measures: a.p.Measures}
	a.mu.Lock()
	defer a.mu.Unlock()
	v, _, err := e.absorb(f, a, nil)
	if err != nil {
		return nil, err
	}
	v.auto = auto
	return v, nil
}

// retainSlotsPerCell bounds a dense table, which spans its whole key
// space, by the cells it is for: a view lets one with more slots per cell
// than this go rather than hold it for its lifetime, and a re-aggregation
// of few cells (reaggregate) does not zero one to begin with. The slot
// table, as large as its cells, does the job instead.
const retainSlotsPerCell = 8

// worthDense reports whether a dense table of slots slots is within that
// bound for cells cells.
func worthDense(slots, cells int) bool {
	return slots <= retainSlotsPerCell*max(cells, 1024)
}

// absorb brings the view behind a (whose mu the caller holds) up to the
// fact's current rows and returns the matView to publish; cur is the
// current one, nil for a first build. When the retained table can be
// trusted, only the rows past cur's mark are scanned, through the same
// kernel into the same table — on a serial scan every accumulator sees the
// additions a build from row 0 would make, in the same order — and delta
// reports it; cur itself comes back when no row was past the mark.
// Otherwise (fewer rows than the mark, a group level whose dictionary grew
// under the retained key space, no retained table) the view is built from
// row 0. After an error the table is spent and the caller drops the view.
func (e *Engine) absorb(f *storage.FactTable, a *viewAccum, cur *matView) (v *matView, delta bool, err error) {
	ver := f.Version()
	sq, err := e.prepare(context.Background(), f, a.q, a.p.Ops)
	if err != nil {
		return nil, false, err
	}
	if a.sparse {
		sq.dense = 0
	}
	src := f.ScanSource(sq.need, nil)
	defer src.Close()
	rows := src.Rows()
	delta = cur != nil && (a.t != nil || a.whole) && rows >= cur.rows &&
		sq.dense == a.sq.dense && slices.Equal(sq.cards, a.sq.cards)
	if delta && rows == cur.rows {
		cur.factVer.Store(ver)
		return cur, true, nil
	}
	from := 0
	if delta {
		if a.t == nil {
			a.t = sq.wholeTable(cur.parts)
			a.slots = sq.occupied(a.t)
		}
		from, sq.into = cur.rows, a.t
	} else {
		a.slots = nil
	}
	a.sq, a.t, a.whole = sq, nil, false
	t, _, err := e.scanRows(storage.RowsFrom(src, from), sq)
	if err != nil {
		return nil, false, err
	}

	s := f.Schema
	v = &matView{group: a.q.Group, rows: rows, acc: a}
	v.factVer.Store(ver)
	if cur != nil {
		v.hits.Store(cur.hits.Load())
	}
	var keys [][]int32
	if delta && sq.cells(t) == len(a.slots) {
		// No new cell: the coordinates and their index carry over.
		keys, v.index = cur.data.Keys, cur.index
	} else {
		a.slots = sq.occupied(t)
		keys = sq.keys(t, a.slots)
		v.index = indexView(keys, sq.cards)
	}
	n := len(a.slots)
	v.parts = sq.columns(t, a.slots)
	// The data cube served to exact-match queries carries the finalized
	// measure columns; the sub-aggregates live beside it.
	if v.data, err = cube.Build(s, v.group, a.names, n, keys, a.p.read(v.parts)); err != nil {
		return nil, false, err
	}
	v.bytes = viewSizeBytes(n, len(v.group), viewCols(s)) + indexBytes(v.index)
	switch {
	case !delta && sq.dense > 0 && n == sq.dense:
		a.whole, a.slots = true, nil
	case worthDense(t.size(), n):
		a.t = t
		v.bytes += int64(t.size()) * 8 * int64(len(v.parts))
	default:
		a.sparse = true
	}
	return v, delta, nil
}

// installView inserts a built view under viewMu (held by the caller) and
// keeps the byte accounting and gauges in step.
func (e *Engine) installView(key viewKey, v *matView) {
	e.views[key] = v
	e.viewBytes += v.bytes
	if v.auto {
		e.autoBytes += v.bytes
	}
	v.lastUse.Store(e.useTick.Add(1))
	gViewBytes.Set(float64(e.viewBytes))
}

// dropViewLocked removes a view under viewMu (held by the caller).
func (e *Engine) dropViewLocked(key viewKey, v *matView) {
	delete(e.views, key)
	e.viewBytes -= v.bytes
	if v.auto {
		e.autoBytes -= v.bytes
	}
	gViewBytes.Set(float64(e.viewBytes))
}

// Views reports how many views are materialized (for tests and tools).
func (e *Engine) Views() int {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return len(e.views)
}

// accepts evaluates q's predicates over the view's cells: per group
// position of the view, the accepted member ids at the view's level, nil
// where q holds no predicate. A predicate the view cannot derive — its
// hierarchy aggregated away, or held at a coarser level — is an error.
func (v *matView) accepts(s *mdm.Schema, q Query) ([][]bool, error) {
	acc := make([][]bool, len(v.group))
	for _, p := range q.Preds {
		vp := v.group.Pos(p.Level.Hier)
		if vp < 0 || v.group[vp].Level > p.Level.Level {
			return nil, fmt.Errorf("engine: predicate on %s not derivable from the view", s.LevelName(p.Level))
		}
		acc[vp] = s.Hiers[p.Level.Hier].Accept(acc[vp], v.group[vp].Level, p.Level.Level, p.Members)
	}
	return acc, nil
}

// keeps reports whether cell i of the view passes acc.
func (v *matView) keeps(acc [][]bool, i int) bool {
	for vp, a := range acc {
		if a != nil && !a[v.data.Keys[vp][i]] {
			return false
		}
	}
	return true
}

// aggregateFromView answers an exact-match query from the view: read
// the cells of the predicates' narrowest slice off the member index
// (selectCells), test them against the other predicates, and project
// the requested measures. The kept cells are gathered column by column;
// the unpredicated case aliases the view's columns outright, up to the
// encoder: no operator writes into a column it did not allocate (see
// cube.Cube), and the answer's column lists are its own.
func aggregateFromView(v *matView, q Query) (*cube.Cube, error) {
	data := v.data
	s := data.Schema
	_, names, err := schemaOps(s, q)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(q.Measures))
	for j, mi := range q.Measures {
		cols[j] = data.Cols[mi]
	}
	all, err := cube.Build(s, q.Group, names, data.Len(), slices.Clone(data.Keys), cols)
	if err != nil || len(q.Preds) == 0 {
		return all, err
	}
	acc, err := v.accepts(s, q)
	if err != nil {
		return nil, err
	}
	// A predicate leaves acc a column, and with the whole view as the
	// limit every slice is listed off the index.
	at, by, _ := v.selectCells(acc, data.Len())
	acc[by] = nil // every listed cell passes it
	if !slices.ContainsFunc(acc, func(a []bool) bool { return a != nil }) {
		return all.Select(at), nil
	}
	keep := make([]int32, 0, len(at))
	for _, i := range at {
		if v.keeps(acc, int(i)) {
			keep = append(keep, i)
		}
	}
	return all.Select(keep), nil
}
