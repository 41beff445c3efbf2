package engine

import (
	"context"
	"fmt"
	"math"
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
// re-aggregating the view's cells through the scan pipeline.

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
// aggregate served to exact-match queries, plus what the navigator needs
// to roll its cells up to coarser group-by sets — the sub-aggregate
// columns the finalized ones were read from (partials.go): AVG is not
// distributive, so a coarser AVG recombines as Σsums/Σcounts, and COUNT
// re-aggregates by summing counts. Everything but the version tag and the
// use counters is immutable: absorbing appended rows publishes a new
// matView, so a reader keeps consistent columns for as long as it holds
// the old one.
type matView struct {
	group mdm.GroupBy
	data  *cube.Cube // finalized measure columns, one per schema measure
	// keyCols are the view's coordinates stored columnar (one member-id
	// column per group position), the layout the scan kernels consume.
	keyCols [][]int32
	// parts are the sub-aggregate columns behind data, laid out by acc.p;
	// a measure that is its own sub-aggregate shares its column with data.
	parts [][]float64
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
	// auto marks views admitted by the adaptive layer (evictable).
	auto bool
	// acc is shared by every matView published for this view.
	acc     *viewAccum
	lastUse atomic.Int64
	hits    atomic.Int64
}

// viewAccum is the state behind a view that absorbing appends updates in
// place: the accumulator table its columns were finalized from. Readers
// never see it; mu serializes the refreshes of the view and guards every
// field but q, p, names and auto, which are fixed at build, and the
// view's current matView is only ever replaced under it.
type viewAccum struct {
	mu sync.Mutex
	// q is the view's build scan: the sub-aggregates p behind every schema
	// measure (named in names), over the whole fact.
	q     Query
	p     *Partials
	names []string
	auto  bool // admitted by the adaptive layer
	// sq is the prepared scan t was accumulated through; t holds the
	// view's first rows rows, or is nil when it was not worth keeping:
	// sparse is then set for good, and every later scan goes through a
	// slot table, which is as large as its cells and always kept.
	sq     *scanQuery
	t      *aggTable
	sparse bool
	// slots is occupied(t) as of the last finalize. Slots are only ever
	// added, so an unchanged count means an unchanged list, and the
	// coordinates derived from it are reused.
	slots []int
}

// viewSizeBytes approximates a view's resident size: measure columns
// (finalized + AVG sums + cnt), row-wise coordinates, columnar key
// copies, and the per-cell index entry.
func viewSizeBytes(cells, groups, measures, avgs int) int64 {
	cols := int64(measures + avgs)
	if measures > 0 {
		cols++ // cnt
	}
	perCell := 8*cols + // measure columns
		4*int64(groups) + 24 + // row-wise coordinate + slice header
		4*int64(groups) + // columnar key copies
		4*int64(groups) + 48 // index key string + map entry
	return int64(cells) * perCell
}

// Materialize pre-aggregates the named fact table at the group-by set
// (all measures, no predicates) and registers the result as a view.
// Re-materializing the same view is an error.
func (e *Engine) Materialize(fact string, g mdm.GroupBy) error {
	f, ok := e.facts[fact]
	if !ok {
		return fmt.Errorf("engine: unknown cube %s", fact)
	}
	key := viewKey{fact, groupKey(g)}
	e.viewMu.RLock()
	_, dup := e.views[key]
	e.viewMu.RUnlock()
	if dup {
		return fmt.Errorf("engine: view on %s %s already materialized", fact, g.String(f.Schema))
	}
	v, err := e.buildView(fact, f, g, false)
	if err != nil {
		return err
	}
	e.viewMu.Lock()
	if _, dup := e.views[key]; dup {
		e.viewMu.Unlock()
		return fmt.Errorf("engine: view on %s %s already materialized", fact, g.String(f.Schema))
	}
	e.installView(key, v)
	e.viewMu.Unlock()
	e.gen.Add(1)
	return nil
}

// buildView scans the fact table once into a new view.
func (e *Engine) buildView(fact string, f *storage.FactTable, g mdm.GroupBy, auto bool) (*matView, error) {
	a := &viewAccum{auto: auto}
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
	return v, err
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
	delta = cur != nil && a.t != nil && rows >= cur.rows &&
		sq.dense == a.sq.dense && slices.Equal(sq.cards, a.sq.cards)
	if delta && rows == cur.rows {
		cur.factVer.Store(ver)
		return cur, true, nil
	}
	from := 0
	if delta {
		from, sq.into = cur.rows, a.t
	} else {
		a.slots = nil
	}
	a.sq, a.t = sq, nil
	t, err := e.scanRows(storage.RowsFrom(src, from), sq)
	if err != nil {
		return nil, false, err
	}

	s := f.Schema
	v = &matView{group: a.q.Group, rows: rows, auto: a.auto, acc: a}
	v.factVer.Store(ver)
	if cur != nil {
		v.hits.Store(cur.hits.Load())
	}
	var coords []mdm.Coordinate
	if n := sq.cells(t); delta && n == len(a.slots) {
		coords, v.keyCols = cur.data.Coords, cur.keyCols
	} else {
		a.slots = sq.occupied(t)
		coords = sq.coords(t, a.slots)
		v.keyCols = make([][]int32, len(v.group))
		backing := make([]int32, n*len(v.group))
		for gi := range v.keyCols {
			col := backing[gi*n : (gi+1)*n : (gi+1)*n]
			for i, coord := range coords {
				col[i] = coord[gi]
			}
			v.keyCols[gi] = col
		}
	}
	v.parts = sq.columns(t, a.slots)
	// The data cube served to exact-match queries carries the finalized
	// measure columns; the sub-aggregates live beside it.
	if v.data, err = cube.Build(s, v.group, a.names, coords, a.p.read(v.parts)); err != nil {
		return nil, false, err
	}
	v.bytes = viewSizeBytes(len(coords), len(v.group), len(s.Measures), countAvgs(s))
	if worthDense(t.size(), len(coords)) {
		a.t = t
		v.bytes += int64(t.size()) * 8 * int64(len(v.parts))
	} else {
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

// FactRows implements the cost model's statistics interface: the
// cardinality of a detailed cube, or 0 if unknown.
func (e *Engine) FactRows(fact string) int {
	f, ok := e.facts[fact]
	if !ok {
		return 0
	}
	return f.Rows()
}

// ViewCells returns the cardinality of the materialized view at exactly
// the group-by set, if one exists (refreshed or not: see
// CoveringViewCells).
func (e *Engine) ViewCells(fact string, g mdm.GroupBy) (int, bool) {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	v, ok := e.views[viewKey{fact, groupKey(g)}]
	if !ok {
		return 0, false
	}
	return v.data.Len(), true
}

// LevelCardinality returns |Dom(l)| for a level of the cube's schema, or
// 0 if unknown.
func (e *Engine) LevelCardinality(fact string, ref mdm.LevelRef) int {
	f, ok := e.facts[fact]
	if !ok || !f.Schema.HasLevel(ref) {
		return 0
	}
	return f.Schema.Dict(ref).Len()
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
		if a != nil && !a[v.keyCols[vp][i]] {
			return false
		}
	}
	return true
}

// pivotFromView evaluates the pushed get+pivot of a POP plan in one
// pipelined pass over the view, the way a DBMS executes Listing 5: no
// intermediate aggregate is materialized; each view cell flows straight
// into its output row. Row state lives in chunked arenas addressed by
// offset — no per-row coordinate clones or value-slice allocations.
func (e *Engine) pivotFromView(v *matView, q Query, level mdm.LevelRef, ref int32, neighbors []int32, strict bool, rename func(measure, member string) string) (*cube.Cube, error) {
	data := v.data
	s := data.Schema
	acc, err := v.accepts(s, q)
	if err != nil {
		return nil, err
	}
	if rename == nil {
		rename = func(measure, member string) string { return measure + "@" + member }
	}
	lp := q.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("engine: pivot level not in group-by set")
	}
	dict := s.Dict(level)
	baseNames := make([]string, len(q.Measures))
	for j, mi := range q.Measures {
		if mi < 0 || mi >= len(s.Measures) {
			return nil, fmt.Errorf("engine: measure index %d out of range for %s", mi, q.Fact)
		}
		baseNames[j] = s.Measures[mi].Name
	}
	names := append([]string(nil), baseNames...)
	for _, id := range neighbors {
		for _, m := range baseNames {
			names = append(names, rename(m, dict.Name(id)))
		}
	}
	slicePos := make(map[int32]int, len(neighbors)+1) // member → block index (0 = ref)
	slicePos[ref] = 0
	for i, id := range neighbors {
		slicePos[id] = i + 1
	}
	nm := len(q.Measures)
	ng := len(q.Group)
	nv := len(names)
	blocks := len(neighbors) + 1
	// Arenas of per-row state, addressed by row ordinal: appends may
	// reallocate the backing arrays, so rows are plain ints, not slices.
	var (
		coordArena  []int32
		valsArena   []float64
		filledArena []bool
	)
	// Output rows are keyed on the coordinate without the pivot level.
	others := make([]int, 0, ng-1)
	cards := make([]int, 0, ng-1)
	for p, ref := range q.Group {
		if p != lp {
			others = append(others, p)
			cards = append(cards, s.Dict(ref).Len())
		}
	}
	space := mdm.NewKeySpace(cards)
	rows := make(map[uint64]int) // others-key → row ordinal
	var wideRows map[string]int  // the same, for a key space past 64 bits
	if space.Wide() {
		wideRows = make(map[string]int)
	}
	n := 0
	for i, coord := range data.Coords {
		block, wanted := slicePos[coord[lp]]
		if !wanted || !v.keeps(acc, i) {
			continue
		}
		var (
			key     uint64
			wideKey string
			r       int
			seen    bool
		)
		if wideRows != nil {
			wideKey = mdm.WideKey(coord, others)
			r, seen = wideRows[wideKey]
		} else {
			var ok bool
			if key, ok = space.Key(coord, others); !ok {
				return nil, fmt.Errorf("engine: view cell %v lies outside its dictionaries", coord)
			}
			r, seen = rows[key]
		}
		if !seen {
			r = n
			n++
			if wideRows != nil {
				wideRows[wideKey] = r
			} else {
				rows[key] = r
			}
			coordArena = append(coordArena, coord...)
			coordArena[r*ng+lp] = ref
			for j := 0; j < nv; j++ {
				valsArena = append(valsArena, nan)
			}
			for b := 0; b < blocks; b++ {
				filledArena = append(filledArena, false)
			}
		}
		vals := valsArena[r*nv : (r+1)*nv]
		for j, mi := range q.Measures {
			vals[block*nm+j] = data.Cols[mi][i]
		}
		filledArena[r*blocks+block] = true
	}
	// Keep the rows that have a reference-slice cell (and, when strict,
	// every neighbor), then transpose the row arenas into columns.
	keep := make([]int, 0, n)
rowsLoop:
	for r := 0; r < n; r++ {
		filled := filledArena[r*blocks : (r+1)*blocks]
		if !filled[0] {
			continue // no reference-slice cell: not a target cell
		}
		if strict {
			for _, f := range filled {
				if !f {
					continue rowsLoop
				}
			}
		}
		keep = append(keep, r)
	}
	coords := cube.Carve(make([]int32, len(keep)*ng), len(keep), ng)
	cols := make([][]float64, nv)
	for j := range cols {
		cols[j] = make([]float64, len(keep))
	}
	for i, r := range keep {
		copy(coords[i], coordArena[r*ng:(r+1)*ng])
		for j, v := range valsArena[r*nv : (r+1)*nv] {
			cols[j][i] = v
		}
	}
	return cube.Build(s, q.Group, names, coords, cols)
}

// aggregateFromView answers an exact-match query from the view: filter
// the cells through the predicates and project the requested measures,
// O(|view|) instead of a fact scan. Output columns are built in bulk
// over preallocated backing arrays; the unpredicated case aliases the
// view's storage outright (results are copied at the cursor boundary
// before anything can mutate them).
func aggregateFromView(v *matView, q Query) (*cube.Cube, error) {
	data := v.data
	s := data.Schema
	names := make([]string, len(q.Measures))
	for j, mi := range q.Measures {
		if mi < 0 || mi >= len(s.Measures) {
			return nil, fmt.Errorf("engine: measure index %d out of range for %s", mi, q.Fact)
		}
		names[j] = s.Measures[mi].Name
	}
	if len(q.Preds) == 0 {
		cols := make([][]float64, len(q.Measures))
		for j, mi := range q.Measures {
			cols[j] = data.Cols[mi]
		}
		return cube.Build(s, q.Group, names, data.Coords, cols)
	}
	acc, err := v.accepts(s, q)
	if err != nil {
		return nil, err
	}
	keep := make([]int, 0, data.Len())
	for i := range data.Coords {
		if v.keeps(acc, i) {
			keep = append(keep, i)
		}
	}
	n := len(keep)
	ng := len(q.Group)
	coords := cube.Carve(make([]int32, n*ng), n, ng)
	for oi, i := range keep {
		copy(coords[oi], data.Coords[i])
	}
	cols := make([][]float64, len(q.Measures))
	colBacking := make([]float64, n*len(q.Measures))
	for j, mi := range q.Measures {
		col := colBacking[j*n : (j+1)*n : (j+1)*n]
		src := data.Cols[mi]
		for oi, i := range keep {
			col[oi] = src[i]
		}
		cols[j] = col
	}
	return cube.Build(s, q.Group, names, coords, cols)
}

var nan = math.NaN()
