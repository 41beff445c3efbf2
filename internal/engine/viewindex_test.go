package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// The member index against the linear pass. Both view paths answered
// every predicated query by testing every cell of the view; now an exact
// answer reads every slice off the view's member index (selectCells), a
// roll-up a slice of under 1/indexedShare of the view's cells.
// linearFromView below is that linear pass, kept as the reference: every
// indexed answer must equal it cell for cell and bit for bit. The
// measures are SSB's real-valued sums, so equality holds only because the
// indexed path feeds the kernel the same cells in the same order.

// linearFromView answers q from v by testing every cell of the view: the
// exact path filters cell by cell, the roll-up feeds every cell to the
// kernel with the predicates' acceptance vectors.
func linearFromView(ctx context.Context, e *Engine, v *matView, q Query, exact bool) (*cube.Cube, error) {
	s := v.data.Schema
	ops, names, err := schemaOps(s, q)
	if err != nil {
		return nil, err
	}
	acc, err := v.accepts(s, q)
	if err != nil {
		return nil, err
	}
	if exact {
		cols := make([][]float64, len(q.Measures))
		for j, mi := range q.Measures {
			cols[j] = v.data.Cols[mi]
		}
		all, err := cube.Build(s, q.Group, names, v.data.Len(), v.data.Keys, cols)
		if err != nil {
			return nil, err
		}
		keep := make([]int32, 0, v.data.Len())
		for i := range v.data.Len() {
			if v.keeps(acc, i) {
				keep = append(keep, int32(i))
			}
		}
		return all.Select(keep), nil
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

// fromView answers q from v the way the navigator does.
func fromView(e *Engine, v *matView, q Query, exact bool) (*cube.Cube, error) {
	if exact {
		return aggregateFromView(v, q)
	}
	return e.rollupFromView(context.Background(), e.facts[q.Fact], v, q)
}

// sameCube requires got to hold want's cells in want's order, with
// bit-identical values.
func sameCube(t *testing.T, label string, got, want *cube.Cube) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, the linear pass %d", label, got.Len(), want.Len())
	}
	for gi := range want.Keys {
		if !slices.Equal(got.Keys[gi], want.Keys[gi]) {
			t.Fatalf("%s: key column %d differs from the linear pass", label, gi)
		}
	}
	for j := range want.Cols {
		for i, w := range want.Cols[j] {
			if g := got.Cols[j][i]; g != w && !(g != g && w != w) {
				t.Fatalf("%s: cell %d measure %s = %v, the linear pass %v", label, i, want.Names[j], g, w)
			}
		}
	}
}

// sliceCase is one predicated view answer.
type sliceCase struct {
	name  string
	group []string // nil: the view's own levels (exact)
	preds []Predicate
}

// ssbPred is the predicate level = the members with the given names.
func ssbPred(t testing.TB, s *mdm.Schema, level string, names ...string) Predicate {
	t.Helper()
	ref, ok := s.FindLevel(level)
	if !ok {
		t.Fatalf("no level %s", level)
	}
	p := Predicate{Level: ref, Members: []int32{}}
	for _, n := range names {
		id, ok := s.Dict(ref).Lookup(n)
		if !ok {
			t.Fatalf("no member %s at %s", n, level)
		}
		p.Members = append(p.Members, id)
	}
	return p
}

// memberNames lists n member names of level, every step-th from first.
func memberNames(s *mdm.Schema, level string, first, step, n int) []string {
	ref, _ := s.FindLevel(level)
	d := s.Dict(ref)
	out := make([]string, 0, n)
	for id := first; len(out) < n && id < d.Len(); id += step {
		out = append(out, d.Name(int32(id)))
	}
	return out
}

// viewSliceCases are predicated answers from a (year, snation, brand)
// view: none, one and many accepted members, a predicate coarser than the
// view's level, predicates on one to three columns, a slice too wide for
// a roll-up's index, each exact and rolled up, with predicates on grouped
// and on aggregated-away columns.
func viewSliceCases(t testing.TB, s *mdm.Schema) []sliceCase {
	brands := memberNames(s, "brand", 3, 7, 40)
	var cases []sliceCase
	for _, c := range []struct {
		name  string
		preds []Predicate
	}{
		{"brand=none", []Predicate{ssbPred(t, s, "brand")}},
		{"brand=1", []Predicate{ssbPred(t, s, "brand", brands[0])}},
		{"brand=40", []Predicate{ssbPred(t, s, "brand", brands...)}},
		{"category=1", []Predicate{ssbPred(t, s, "category", memberNames(s, "category", 2, 1, 1)...)}},
		{"year=2", []Predicate{ssbPred(t, s, "year", "1997", "1998")}},
		{"year=6", []Predicate{ssbPred(t, s, "year", "1992", "1993", "1994", "1995", "1996", "1997")}},
		{"brand=40,year=2", []Predicate{ssbPred(t, s, "brand", brands...), ssbPred(t, s, "year", "1997", "1998")}},
		{"year=2,category=1", []Predicate{ssbPred(t, s, "year", "1995", "1996"), ssbPred(t, s, "category", memberNames(s, "category", 5, 1, 1)...)}},
		{"snation=3,year=3,mfgr=1", []Predicate{
			ssbPred(t, s, "snation", memberNames(s, "snation", 1, 4, 3)...),
			ssbPred(t, s, "year", "1992", "1994", "1996"),
			ssbPred(t, s, "mfgr", memberNames(s, "mfgr", 1, 1, 1)...),
		}},
		{"sregion=1,brand=1", []Predicate{ssbPred(t, s, "sregion", "EUROPE"), ssbPred(t, s, "brand", brands[1])}},
	} {
		for _, group := range [][]string{nil, {"snation", "year"}, {"year"}, {"sregion", "category"}, {}} {
			label := "exact"
			if group != nil {
				label = fmt.Sprint(group)
			}
			cases = append(cases, sliceCase{name: c.name + "/" + label, group: group, preds: c.preds})
		}
	}
	return cases
}

// fewestAccepted is the fewest cells of the view any one predicated
// column accepts, counted cell by cell: what the index path is chosen by.
func fewestAccepted(v *matView, acc [][]bool) int {
	fewest := v.data.Len()
	for vp, a := range acc {
		if a == nil {
			continue
		}
		n := 0
		for _, id := range v.data.Keys[vp] {
			if a[id] {
				n++
			}
		}
		fewest = min(fewest, n)
	}
	return fewest
}

// checkSlices answers every case from the engine's (year, snation,
// brand) view through the navigator's path and through the linear pass,
// and holds them equal; the path taken must be the one the cell counts
// call for. It reports how many answers took each path.
func checkSlices(t *testing.T, label string, e *Engine, cases []sliceCase) (indexed, linear int) {
	t.Helper()
	s := e.facts["LINEORDER"].Schema
	g := mdm.MustGroupBy(s, "year", "snation", "brand")
	for _, c := range cases {
		q := Query{Fact: "LINEORDER", Group: g, Preds: c.preds, Measures: []int{0, 1, 2}}
		if c.group != nil {
			q.Group = mdm.MustGroupBy(s, c.group...)
		}
		v, exact := e.lookupView(q)
		if v == nil || exact != (c.group == nil) {
			t.Fatalf("%s %s: view %v, exact %v", label, c.name, v != nil, exact)
		}
		acc, err := v.accepts(s, q)
		if err != nil {
			t.Fatal(err)
		}
		fewest := fewestAccepted(v, acc)
		wantIndex := exact || fewest*indexedShare < v.data.Len()
		idx, lin := mViewSelectIndex.Value(), mViewSelectLinear.Value()
		got, err := fromView(e, v, q, exact)
		if err != nil {
			t.Fatalf("%s %s: %v", label, c.name, err)
		}
		di, dl := mViewSelectIndex.Value()-idx, mViewSelectLinear.Value()-lin
		if wantIndex && (di != 1 || dl != 0) || !wantIndex && (di != 0 || dl != 1) {
			t.Fatalf("%s %s: %d of %d cells accepted: counted %d index and %d linear selects, want the index %v",
				label, c.name, fewest, v.data.Len(), di, dl, wantIndex)
		}
		if wantIndex {
			indexed++
		} else {
			linear++
		}
		want, err := linearFromView(context.Background(), e, v, q, exact)
		if err != nil {
			t.Fatal(err)
		}
		sameCube(t, label+" "+c.name, got, want)
	}
	return indexed, linear
}

// appendRows appends copies of fact rows: with fresh set, each copy's
// date moves to another year, so most copies land in cells the view does
// not hold yet.
func appendRows(t *testing.T, f *storage.FactTable, rng *rand.Rand, n int, fresh bool) {
	t.Helper()
	dates := f.Schema.Hiers[0].Dict(0).Len()
	keys, vals := make([]int32, len(f.Keys)), make([]float64, len(f.Meas))
	for range n {
		r := rng.Intn(f.Rows())
		for h := range keys {
			keys[h] = f.Keys[h][r]
		}
		for m := range vals {
			vals[m] = f.Meas[m][r]
		}
		if fresh {
			keys[0] = int32((int(keys[0]) + 12*28*(1+rng.Intn(6))) % dates)
		}
		if err := f.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewIndexMatchesLinear holds every predicated answer of a (year,
// snation, brand) view — exact and rolled up, on the dense and on the
// slot-table kernel — to the linear pass, before and after delta
// refreshes: one that adds rows to existing cells only, which carries the
// index over, and one that adds cells, which rebuilds it.
func TestViewIndexMatchesLinear(t *testing.T) {
	for _, budget := range []int{-1, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			ds := ssb.Generate(0.01, 5)
			e := New()
			e.setDenseKeyBudget(budget)
			if err := e.Register("LINEORDER", ds.Fact); err != nil {
				t.Fatal(err)
			}
			s := ds.Schema
			g := mdm.MustGroupBy(s, "year", "snation", "brand")
			if err := e.Materialize("LINEORDER", g); err != nil {
				t.Fatal(err)
			}
			cases := viewSliceCases(t, s)
			indexed, linear := checkSlices(t, "built", e, cases)
			if indexed < len(cases)/2 || linear == 0 {
				t.Fatalf("%d answers off the index, %d linear: the cases do not exercise both paths", indexed, linear)
			}

			viewAt := func() *matView {
				v, exact := e.lookupView(Query{Fact: "LINEORDER", Group: g})
				if v == nil || !exact {
					t.Fatal("the view is gone")
				}
				return v
			}
			rng := rand.New(rand.NewSource(3))
			before, prev := readStale(), viewAt()
			if (prev.acc.sq.dense == 0) != (budget == 0) {
				t.Fatalf("view built on %d dense slots under budget %d", prev.acc.sq.dense, budget)
			}
			appendRows(t, ds.Fact, rng, 500, false)
			v := viewAt()
			if d := readStale().since(before); d.refreshed != 1 || d.rebuilt != 0 {
				t.Fatalf("after 500 rows in existing cells: %+v, want one refresh", d)
			}
			if v.data.Len() != prev.data.Len() || &v.index[2].cells[0] != &prev.index[2].cells[0] {
				t.Fatalf("no cell added (%d → %d cells), yet the index was rebuilt", prev.data.Len(), v.data.Len())
			}
			checkSlices(t, "refreshed", e, cases)

			before, prev = readStale(), v
			appendRows(t, ds.Fact, rng, 3000, true)
			v = viewAt()
			if d := readStale().since(before); d.refreshed != 1 || d.rebuilt != 0 {
				t.Fatalf("after 3 000 rows in new cells: %+v, want one refresh", d)
			}
			if v.data.Len() == prev.data.Len() || &v.index[2].cells[0] == &prev.index[2].cells[0] {
				t.Fatalf("%d → %d cells, index rebuilt %v: the refresh must add cells and rebuild the index",
					prev.data.Len(), v.data.Len(), &v.index[2].cells[0] != &prev.index[2].cells[0])
			}
			for vp, ix := range v.index {
				want := indexMembers(v.data.Keys[vp], len(ix.offsets)-1)
				if !slices.Equal(ix.offsets, want.offsets) || !slices.Equal(ix.cells, want.cells) {
					t.Fatalf("key column %d: the index differs from one built over the refreshed cells", vp)
				}
			}
			checkSlices(t, "grown", e, cases)
		})
	}
}

// TestViewIndexConcurrentReaders has several goroutines answer sliced
// queries off one freshly published view — the first reads race to
// refresh it — while the answers are held to the linear pass over a view
// built from row 0. Run it under -race: the index is read without a lock.
func TestViewIndexConcurrentReaders(t *testing.T) {
	ds := ssb.Generate(0.01, 9)
	e := New()
	if err := e.Register("LINEORDER", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	g := mdm.MustGroupBy(s, "year", "snation", "brand")
	if err := e.Materialize("LINEORDER", g); err != nil {
		t.Fatal(err)
	}
	cases := viewSliceCases(t, s)
	appendRows(t, ds.Fact, rand.New(rand.NewSource(4)), 2000, true)
	built, err := e.buildView("LINEORDER", ds.Fact, g, false)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, len(cases))
	wants := make([]*cube.Cube, len(cases))
	for i, c := range cases {
		queries[i] = Query{Fact: "LINEORDER", Group: g, Preds: c.preds, Measures: []int{0, 1, 2}}
		if c.group != nil {
			queries[i].Group = mdm.MustGroupBy(s, c.group...)
		}
		if wants[i], err = linearFromView(context.Background(), e, built, queries[i], c.group == nil); err != nil {
			t.Fatal(err)
		}
	}
	idx := mViewSelectIndex.Value()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				i := (k + 7*w) % len(queries)
				got, err := e.Get(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got.Len() != wants[i].Len() {
					t.Errorf("%s: %d cells, want %d", cases[i].name, got.Len(), wants[i].Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	if mViewSelectIndex.Value() == idx {
		t.Fatal("no reader answered off the member index")
	}
	for i, q := range queries {
		got, err := e.Get(q)
		if err != nil {
			t.Fatal(err)
		}
		sameCube(t, cases[i].name, got, wants[i])
	}
}
