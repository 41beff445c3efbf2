package engine

import (
	"context"
	"fmt"
	"sort"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// The aggregate navigator. Group-by sets form the roll-up lattice of
// Gray et al.'s data cube: a view at G' answers any query at G with
// G' ⪰H G — every query level reachable by roll-up from the view's
// level of the same hierarchy, and every predicate level derivable the
// same way. Exact matches are served by a filter over the view's cells
// (views.go); strictly coarser queries re-aggregate the view's cells
// through the same scan pipeline as fact scans (morsel-parallel above the
// usual threshold), so a 500k-row scan collapses to a pass over a few
// thousand view cells. The adaptive admission layer watches queries
// that miss every view and auto-materializes the covering sets whose
// misses have read as many rows as a build would, under a byte budget,
// evicting least-recently-used admitted views. A view whose fact table
// has since grown absorbs the appended rows — those past its high-water
// mark — the next time a query picks it (views.go, absorb).

// covers reports whether the view can answer the query: the view's
// group-by set rolls up to the query's, and every predicate hierarchy is
// present in the view at a level not coarser than the predicate's.
func (v *matView) covers(q Query) bool {
	if !v.group.RollsUpTo(q.Group) {
		return false
	}
	for _, p := range q.Preds {
		pos := v.group.Pos(p.Level.Hier)
		if pos < 0 || v.group[pos].Level > p.Level.Level {
			return false
		}
	}
	return true
}

// pickView scans the view catalog under viewMu (held by the caller) for
// the best covering view: an exact group-by match when one exists (no
// re-aggregation needed, and never more cells than a finer view),
// otherwise the covering view with the fewest cells. A view behind its
// fact counts like any other — lookupView absorbs the rows it lacks
// before serving it — so an append does not change the choice.
func (e *Engine) pickView(q Query) (best *matView, exact bool) {
	gkey := groupKey(q.Group)
	for key, v := range e.views {
		if key.fact != q.Fact || !v.covers(q) {
			continue
		}
		if key.gkey == gkey {
			return v, true
		}
		if best == nil || v.data.Len() < best.data.Len() {
			best = v
		}
	}
	return best, false
}

// lookupView resolves the query against the view lattice and returns the
// view to answer it from, brought up to the fact's current version if it
// was behind; exact reports a group-by match that needs no
// re-aggregation. Only the chosen view is refreshed: the others catch up
// when a query picks them.
func (e *Engine) lookupView(q Query) (v *matView, exact bool) {
	f, ok := e.facts[q.Fact]
	if !ok {
		return nil, false
	}
	for {
		e.viewMu.RLock()
		v, exact = e.pickView(q)
		e.viewMu.RUnlock()
		if v == nil {
			return nil, false
		}
		if v.factVer.Load() != f.Version() {
			if v = e.refreshView(f, v); v == nil {
				continue // the catalog changed under the refresh: choose again
			}
		}
		v.lastUse.Store(e.useTick.Add(1))
		v.hits.Add(1)
		return v, exact
	}
}

// refreshView absorbs the fact rows a stale view lacks and publishes the
// result in its place, one rule for explicit and admitted views alike.
// Refreshes of one view are serialized, and each starts from the view's
// then-current mark, so racing readers never fold a row in twice: the
// loser of the race finds the winner's view and, if the fact has not
// moved again, returns it as is. A view whose scan fails is dropped. The
// result is nil when the view is no longer the one in the catalog.
func (e *Engine) refreshView(f *storage.FactTable, v *matView) *matView {
	a, key := v.acc, viewKey{v.acc.q.Fact, groupKey(v.group)}
	a.mu.Lock()
	defer a.mu.Unlock()
	e.viewMu.RLock()
	cur := e.views[key]
	e.viewMu.RUnlock()
	if cur == nil || cur.acc != a {
		return nil
	}
	if cur.factVer.Load() == f.Version() {
		return cur
	}
	nv, delta, err := e.absorb(f, a, cur)
	switch {
	case err != nil:
		mViewStaleDropped.Inc()
	case delta:
		mViewRefreshed.Inc()
		mViewRefreshRows.Add(int64(nv.rows - cur.rows))
	default:
		mViewRebuilt.Inc()
	}
	if nv == cur {
		return cur
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	// Eviction and re-materialization take viewMu only.
	if e.views[key] != cur {
		return nil
	}
	e.dropViewLocked(key, cur)
	if nv != nil {
		nv.auto = cur.auto
		e.installView(key, nv)
	}
	return nv
}

// rollupFromView answers a query strictly coarser than the view by
// re-aggregating the view's cells (reaggregate, partials.go): the view's
// key columns play the fact key columns, roll-up maps go from the view
// level (not the base level) to the query level, and the view's
// sub-aggregate columns stand in for the requested measures'.
func (e *Engine) rollupFromView(ctx context.Context, f *storage.FactTable, v *matView, q Query) (*cube.Cube, error) {
	s := f.Schema
	ops, names, err := schemaOps(s, q)
	if err != nil {
		return nil, err
	}
	acc, err := v.accepts(s, q)
	if err != nil {
		return nil, err
	}
	keys := make([][]int32, len(s.Hiers))
	accepts := make([][]bool, len(s.Hiers))
	for vp, ref := range v.group {
		keys[ref.Hier], accepts[ref.Hier] = v.data.Keys[vp], acc[vp]
	}
	gmaps := make([][]int32, len(q.Group))
	for gi, ref := range q.Group {
		gmaps[gi] = s.Hiers[ref.Hier].LevelMap(v.group[v.group.Pos(ref.Hier)].Level, ref.Level)
	}
	// The view holds a sub-aggregate column for every schema measure, so
	// each column of the query's layout is one of the view's.
	p, held := Decompose(q.Measures, ops), v.acc.p
	cols := make([][]float64, len(p.Ops))
	for j, mi := range q.Measures {
		cols[p.col[j]] = v.parts[held.col[mi]]
	}
	if p.cnt >= 0 {
		cols[p.cnt] = v.parts[held.cnt]
	}
	return e.reaggregate(ctx, s, q.Group, q.Group, gmaps, accepts, p, names, storage.ColumnsSource(keys, cols, v.data.Len()))
}

// Adaptive view admission is rent-or-buy. Every aggregate that misses
// the view lattice adds the rows of the blocks its scan read to the tally
// of its covering set — the coarsest group-by set whose view could have
// answered it. Repeated misses pay rent in rows read; a build costs one
// read of the whole fact. So once a set has been sighted twice and its
// misses have read as many rows as the fact holds, it is bought:
// materialized, provided its estimated cell count is at most half the
// fact rows (the view must out-coarsen the fact) and its estimated size
// fits the byte budget, with least-recently-used admitted views evicted
// to make room. A block read costs all its rows even when postings
// select a few of them: a build reads the same blocks in full, and a
// gather scattered over a segment touches most pages of every column it
// needs. A block pruned by its zone map, or skipped because no row
// matches, costs nothing. So a resident fact and a segment store whose
// every segment holds the slicer's members both earn a set on its second
// miss; a slicer that zone maps confine to a few segments takes as many
// misses as it takes to read the fact.

// minViewSightings is how many misses a covering set needs before the
// rows they read may buy it a view: one full scan is not yet a pattern.
const minViewSightings = 2

// autoAdmit is the admission tally, guarded by its own small mutex (the
// views map itself is guarded by viewMu). A budget of 0 turns admission
// off.
type autoAdmit struct {
	budget   int64
	tally    map[viewKey]*viewTally
	building map[viewKey]bool
}

type viewTally struct {
	group  mdm.GroupBy
	misses int
	read   int
}

// maxTallyEntries bounds the admission tally; a workload with more
// distinct cold covering sets than this resets the tally rather than
// growing without bound.
const maxTallyEntries = 4096

// SetAutoViews turns adaptive view admission on with a budget of bytes
// for the admitted views, or off with 0. Turning it off keeps the views
// already admitted (they are still correct; they just stop being
// replenished). Explicit views don't count against the budget.
func (e *Engine) SetAutoViews(bytes int64) {
	e.autoMu.Lock()
	defer e.autoMu.Unlock()
	e.auto.budget = max(bytes, 0)
	if e.auto.tally == nil {
		e.auto.tally = make(map[viewKey]*viewTally)
		e.auto.building = make(map[viewKey]bool)
	}
}

// coveringSet is the coarsest group-by set whose view answers q: q's
// group-by set, with each predicate level added, or taking the place of
// the grouped level of its hierarchy where it is finer. It is returned
// in canonical (hierarchy) order, so a set earned through a predicate
// shares its key with the same set grouped or materialized directly.
func coveringSet(q Query) mdm.GroupBy {
	g := append(mdm.GroupBy(nil), q.Group...)
	for _, p := range q.Preds {
		switch pos := g.Pos(p.Level.Hier); {
		case pos < 0:
			g = append(g, p.Level)
		case p.Level.Level < g[pos].Level:
			g[pos] = p.Level
		}
	}
	sort.Slice(g, func(i, j int) bool { return g[i].Hier < g[j].Hier })
	return g
}

// noteViewMiss adds a lattice miss whose scan read read rows to the tally
// of q's covering set and materializes the set once it has earned it. The
// build runs outside both locks; the building set, and the check for a
// view installed since the miss, keep concurrent misses from building
// one set twice.
func (e *Engine) noteViewMiss(q Query, read int) {
	f, ok := e.facts[q.Fact]
	if !ok {
		return
	}
	e.autoMu.Lock()
	a := &e.auto
	if a.budget == 0 {
		e.autoMu.Unlock()
		return
	}
	g := coveringSet(q)
	key := viewKey{q.Fact, groupKey(g)}
	if len(g) == 0 || a.building[key] || e.hasView(key) {
		e.autoMu.Unlock()
		return
	}
	t := a.tally[key]
	if t == nil {
		if len(a.tally) >= maxTallyEntries {
			a.tally = make(map[viewKey]*viewTally)
		}
		t = &viewTally{group: g}
		a.tally[key] = t
	}
	t.misses++
	t.read += read
	rows := f.Rows()
	est := estimatedCells(f, g, rows)
	admit := t.misses >= minViewSightings && t.read >= rows &&
		2*est <= rows && // benefit: the view must out-coarsen the fact
		viewSizeBytes(est, len(g), viewCols(f.Schema)) <= a.budget
	if admit {
		a.building[key] = true
	}
	budget := a.budget
	e.autoMu.Unlock()
	if !admit {
		return
	}
	ok = e.admitView(key, f, g, budget)
	e.autoMu.Lock()
	delete(e.auto.building, key)
	if ok {
		delete(e.auto.tally, key)
	} else if t := e.auto.tally[key]; t != nil {
		// The estimate lied (build failed or over budget): poison the
		// tally so the set doesn't pay for a rebuild every few misses.
		t.misses = -1 << 30
	}
	e.autoMu.Unlock()
}

// hasView reports whether a view is installed under key.
func (e *Engine) hasView(key viewKey) bool {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return e.views[key] != nil
}

// admitView materializes an earned covering set and installs it under
// the budget, evicting least-recently-used admitted views to make room.
func (e *Engine) admitView(key viewKey, f *storage.FactTable, g mdm.GroupBy, budget int64) bool {
	v, err := e.buildView(key.fact, f, g, true)
	if err != nil || v.bytes > budget {
		return false
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if _, dup := e.views[key]; dup {
		return true // materialized explicitly meanwhile; the lattice covers the set
	}
	for e.autoBytes+v.bytes > budget {
		if !e.evictLRULocked() {
			return false // nothing evictable left and still over budget
		}
	}
	e.installView(key, v)
	mViewAdmissions.Inc()
	return true
}

// evictLRULocked drops the least-recently-used admitted view; explicit
// views are never evicted. Returns false when no admitted view remains.
func (e *Engine) evictLRULocked() bool {
	var victimKey viewKey
	var victim *matView
	for key, v := range e.views {
		if !v.auto {
			continue
		}
		if victim == nil || v.lastUse.Load() < victim.lastUse.Load() {
			victimKey, victim = key, v
		}
	}
	if victim == nil {
		return false
	}
	e.dropViewLocked(victimKey, victim)
	mViewEvictions.Inc()
	return true
}

// estimatedCells bounds a view's cell count: the product of the group
// level cardinalities, capped by the fact rows.
func estimatedCells(f *storage.FactTable, g mdm.GroupBy, rows int) int {
	if size, ok := f.Schema.KeySpace(g).Size(); ok && size > 0 && size < uint64(rows) {
		return int(size)
	}
	return rows
}

// ViewInfo describes one materialized view for stats endpoints.
type ViewInfo struct {
	Fact   string   `json:"fact"`
	Levels []string `json:"levels"`
	Cells  int      `json:"cells"`
	Bytes  int64    `json:"bytes"`
	Auto   bool     `json:"auto"`
	Hits   int64    `json:"hits"`
	Stale  bool     `json:"stale"`
	// Rows is the view's high-water mark: the fact rows it has absorbed.
	Rows int `json:"rows"`
}

// ViewStats is the navigator section of the stats endpoints.
type ViewStats struct {
	Views       []ViewInfo `json:"views"`
	Bytes       int64      `json:"bytes"`
	AutoBytes   int64      `json:"autoBytes"`
	AutoEnabled bool       `json:"autoEnabled"`
	BudgetBytes int64      `json:"budgetBytes"`
}

// ViewStatsSnapshot reports the materialized views and the admission
// accounting, sorted by fact then levels for stable output.
func (e *Engine) ViewStatsSnapshot() ViewStats {
	e.autoMu.Lock()
	st := ViewStats{AutoEnabled: e.auto.budget > 0, BudgetBytes: e.auto.budget}
	e.autoMu.Unlock()
	e.viewMu.RLock()
	st.Bytes = e.viewBytes
	st.AutoBytes = e.autoBytes
	st.Views = make([]ViewInfo, 0, len(e.views))
	for key, v := range e.views {
		f := e.facts[key.fact]
		levels := make([]string, len(v.group))
		for i, ref := range v.group {
			levels[i] = f.Schema.LevelName(ref)
		}
		st.Views = append(st.Views, ViewInfo{
			Fact:   key.fact,
			Levels: levels,
			Cells:  v.data.Len(),
			Bytes:  v.bytes,
			Auto:   v.auto,
			Hits:   v.hits.Load(),
			Stale:  v.factVer.Load() != f.Version(),
			Rows:   v.rows,
		})
	}
	e.viewMu.RUnlock()
	sort.Slice(st.Views, func(i, j int) bool {
		a, b := st.Views[i], st.Views[j]
		if a.Fact != b.Fact {
			return a.Fact < b.Fact
		}
		return fmt.Sprint(a.Levels) < fmt.Sprint(b.Levels)
	})
	return st
}
