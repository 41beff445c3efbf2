package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

// View maintenance by delta. A stale view absorbs the rows past its
// high-water mark instead of being rebuilt; every test here holds the
// result against a view built from row 0 over the same fact — cell for
// cell and bit for bit, the generated measures being integer-valued — and
// reads the stale-action counters to know which path produced it.

// staleCounts is a reading of the view-maintenance counters.
type staleCounts struct{ refreshed, rebuilt, dropped, rows, scanned int64 }

func readStale() staleCounts {
	return staleCounts{mViewRefreshed.Value(), mViewRebuilt.Value(), mViewStaleDropped.Value(), mViewRefreshRows.Value(), mRowsScanned.Value()}
}

func (c staleCounts) since(b staleCounts) staleCounts {
	return staleCounts{c.refreshed - b.refreshed, c.rebuilt - b.rebuilt, c.dropped - b.dropped, c.rows - b.rows, c.scanned - b.scanned}
}

// viewAt looks the view at exactly g up the way a query does, refreshing
// it if it is stale.
func viewAt(t *testing.T, e *Engine, g mdm.GroupBy) *matView {
	t.Helper()
	v, exact := e.lookupView(Query{Fact: "T", Group: g})
	if v == nil || !exact {
		t.Fatalf("no view at %v (exact=%v)", g, exact)
	}
	return v
}

// sameAsBuild requires the view to hold exactly what a build from row 0
// over the fact's current rows holds: the mark, the cells in order, every
// finalized measure and every sub-aggregate column.
func sameAsBuild(t *testing.T, label string, e *Engine, v *matView) {
	t.Helper()
	f := e.facts["T"]
	want, err := e.buildView("T", f, v.group, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.rows != want.rows || v.rows != f.Rows() {
		t.Fatalf("%s: mark %d, a fresh build has %d, the fact %d rows", label, v.rows, want.rows, f.Rows())
	}
	sameCells(t, label, v.data, coordsOf(want.data), want.data.Cols)
	for k := range want.parts {
		if !slices.Equal(v.parts[k], want.parts[k]) {
			t.Errorf("%s: sub-aggregate column %d differs from a fresh build", label, k)
		}
	}
	for gi := range want.data.Keys {
		if !slices.Equal(v.data.Keys[gi], want.data.Keys[gi]) {
			t.Errorf("%s: key column %d differs from a fresh build", label, gi)
		}
	}
}

// appendRandom appends n random rows of twoHierSchema to every table.
func appendRandom(t *testing.T, rng *rand.Rand, s *mdm.Schema, n int, tables ...*storage.FactTable) {
	t.Helper()
	nk, nc := s.Hiers[0].Dict(0).Len(), s.Hiers[1].Dict(0).Len()
	for r := 0; r < n; r++ {
		v := float64(rng.Intn(2001) - 1000)
		keys, vals := []int32{int32(rng.Intn(nk)), int32(rng.Intn(nc))}, []float64{v, v, v, v, 0}
		for _, f := range tables {
			if err := f.Append(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// segmentFact copies a resident fact into a segment store.
func segmentFact(t testing.TB, f *storage.FactTable, opts colstore.Options) (*storage.FactTable, *colstore.Store) {
	t.Helper()
	dir := t.TempDir()
	if err := persist.SaveCubeDir(dir, f, opts); err != nil {
		t.Fatal(err)
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return seg, st
}

// TestViewRefreshMatchesBuild appends batch after batch — one row, a few,
// more than a morsel, enough to go parallel — to a sparse fact, so that
// batches add cells as well as rows, and after each reads through every
// view on every kernel. Each read must refresh exactly the view it picked,
// absorb exactly the batch, rebuild nothing, and leave the view equal to a
// fresh build; queries answered from the refreshed views (a predicated
// exact match, a roll-up through the auxiliary columns) must match the
// row-at-a-time reference.
func TestViewRefreshMatchesBuild(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 40, 5)
	engines := kernelEngines(t, f)
	views := []mdm.GroupBy{mdm.MustGroupBy(s, "k", "c"), mdm.MustGroupBy(s, "g", "c"), mdm.MustGroupBy(s, "c")}
	for _, e := range engines {
		for _, g := range views {
			if err := e.Materialize("T", g); err != nil {
				t.Fatal(err)
			}
		}
	}
	gRef, gID := member(t, s, "g", memberName(3))
	all := []int{0, 1, 2, 3, 4}
	ops, _, _ := schemaOps(s, Query{Measures: all})
	rng := rand.New(rand.NewSource(9))
	for _, batch := range []int{1, 7, 300, 64, 1000} {
		appendRandom(t, rng, s, batch, f)
		for name, e := range engines {
			for _, g := range views {
				before := readStale()
				v := viewAt(t, e, g)
				if d := readStale().since(before); d != (staleCounts{refreshed: 1, rows: int64(batch), scanned: int64(batch)}) {
					t.Fatalf("%s %v after +%d rows: %+v, want one refresh that scans and absorbs the batch", name, g, batch, d)
				}
				sameAsBuild(t, name, e, v)
				if again := viewAt(t, e, g); again != v {
					t.Fatalf("%s %v: a fresh view was replaced on the next read", name, g)
				}
			}
			for _, q := range []Query{
				{Fact: "T", Group: views[0], Preds: []Predicate{{Level: gRef, Members: []int32{gID}}}, Measures: all},
				{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Measures: all},
			} {
				got, err := e.Get(q)
				if err != nil {
					t.Fatal(err)
				}
				coords, vals := refAggregate(f, q, ops)
				sameCells(t, name, got, coords, vals)
			}
		}
	}
}

// TestViewRefreshWholeTable: a build that occupies every slot of its
// dense table keeps neither the table nor its slot list — the view's own
// columns are its accumulators — and the first append rebuilds both from
// those columns and refreshes by delta, exactly as a kept table would,
// reusing the view's coordinates; from then on they are kept. One fact
// has counts (and an average, a min and a max) behind its views, the
// other only sums, whose table tracks occupancy instead.
func TestViewRefreshWholeTable(t *testing.T) {
	s := twoHierSchema(60, 11)
	counted := intFact(s, 2000, 5)
	rng := rand.New(rand.NewSource(5))
	ds := sales.Generate(4000, 51)
	sums := ds.Fact
	for _, c := range []struct {
		name   string
		f      *storage.FactTable
		g      mdm.GroupBy
		append func(n int)
	}{
		{"counts", counted, mdm.MustGroupBy(s, "g", "c"), func(n int) { appendRandom(t, rng, s, n, counted) }},
		{"sums", sums, mdm.MustGroupBy(ds.Schema, "year", "country"), func(n int) {
			keys, vals := make([]int32, len(sums.Keys)), make([]float64, len(sums.Meas))
			for range n {
				r := rng.Intn(sums.Rows())
				for h := range keys {
					keys[h] = sums.Keys[h][r]
				}
				for m := range vals {
					vals[m] = sums.Meas[m][r]
				}
				if err := sums.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		e := New()
		if err := e.Register("T", c.f); err != nil {
			t.Fatal(err)
		}
		if err := e.Materialize("T", c.g); err != nil {
			t.Fatal(err)
		}
		v := viewAt(t, e, c.g)
		if a := v.acc; a.t != nil || a.slots != nil || !a.whole || a.sq.dense == 0 || v.data.Len() != a.sq.dense {
			t.Fatalf("%s: after the build: table kept %v, slots kept %v, whole %v, %d cells of %d slots; want neither kept for a whole dense table",
				c.name, a.t != nil, a.slots != nil, a.whole, v.data.Len(), a.sq.dense)
		}
		for i, batch := range []int{3, 40} {
			c.append(batch)
			before, prev := readStale(), v
			v = viewAt(t, e, c.g)
			if d := readStale().since(before); d != (staleCounts{refreshed: 1, rows: int64(batch), scanned: int64(batch)}) {
				t.Fatalf("%s, append %d: %+v, want one refresh of the %d rows", c.name, i, d, batch)
			}
			sameAsBuild(t, fmt.Sprintf("%s, append %d", c.name, i), e, v)
			if &v.data.Keys[0][0] != &prev.data.Keys[0][0] {
				t.Errorf("%s, append %d: coordinates rebuilt though no cell was added", c.name, i)
			}
			if v.acc.t == nil || len(v.acc.slots) != v.data.Len() || v.acc.whole {
				t.Fatalf("%s, append %d: table or slots not kept after a refresh", c.name, i)
			}
		}
	}
}

// TestViewRefreshOnlyThePickedView: an append leaves every view of the
// fact stale, a read refreshes the one it is answered from, and the
// navigator goes on picking the others as covering.
func TestViewRefreshOnlyThePickedView(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 500, 5)
	e := New()
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	fine, coarse := mdm.MustGroupBy(s, "k", "c"), mdm.MustGroupBy(s, "g")
	for _, g := range []mdm.GroupBy{fine, coarse} {
		if err := e.Materialize("T", g); err != nil {
			t.Fatal(err)
		}
	}
	appendRandom(t, rand.New(rand.NewSource(1)), s, 20, f)
	e.viewMu.RLock()
	vFine, exactFine := e.pickView(Query{Fact: "T", Group: fine})
	vCoarse, exactCoarse := e.pickView(Query{Fact: "T", Group: coarse})
	e.viewMu.RUnlock()
	if vFine == nil || !exactFine || vFine.data.Len() == 0 {
		t.Fatal("pickView lost the stale view")
	}
	if vCoarse == nil || !exactCoarse {
		t.Fatal("pickView lost the stale exact view")
	}
	if n := vCoarse.data.Len(); n != 7 {
		t.Fatalf("pickView chose a view of %d cells for a stale exact view of 7", n)
	}
	if _, err := e.Get(Query{Fact: "T", Group: coarse, Measures: []int{0}}); err != nil {
		t.Fatal(err)
	}
	for _, vi := range e.ViewStatsSnapshot().Views {
		switch len(vi.Levels) {
		case 1:
			if vi.Stale || vi.Rows != 520 {
				t.Errorf("the view the query picked: %+v, want fresh at mark 520", vi)
			}
		default:
			if !vi.Stale || vi.Rows != 500 {
				t.Errorf("the view no query picked: %+v, want stale at mark 500", vi)
			}
		}
	}
}

// TestViewRefreshRetag: a version that moves without rows — the
// coordinator reconciling shard generations — costs a stale view one
// look at the row count and no scan.
func TestViewRefreshRetag(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 500, 5)
	e := New()
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	g := mdm.MustGroupBy(s, "k", "c")
	if err := e.Materialize("T", g); err != nil {
		t.Fatal(err)
	}
	v := viewAt(t, e, g)
	f.AdvanceVersion(3)
	if !e.ViewStatsSnapshot().Views[0].Stale {
		t.Fatal("a version bump did not make the view stale")
	}
	before := readStale()
	if again := viewAt(t, e, g); again != v {
		t.Fatal("a retag replaced the view")
	}
	if d := readStale().since(before); d != (staleCounts{refreshed: 1}) {
		t.Fatalf("retag: %+v, want one refresh of zero rows and no scan", d)
	}
	if e.ViewStatsSnapshot().Views[0].Stale {
		t.Fatal("the view is still stale after the read")
	}
}

// TestViewRefreshFallbacks drives each condition under which the delta
// cannot be trusted: the view must come out equal to a fresh build all
// the same, counted as rebuilt — or, when its scan fails, be dropped.
func TestViewRefreshFallbacks(t *testing.T) {
	g := func(s *mdm.Schema) mdm.GroupBy { return mdm.MustGroupBy(s, "k", "c") }
	setup := func(t *testing.T, f *storage.FactTable) *Engine {
		e := New()
		if err := e.Register("T", f); err != nil {
			t.Fatal(err)
		}
		if err := e.Materialize("T", g(f.Schema)); err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("a group level's dictionary grew", func(t *testing.T) {
		s := twoHierSchema(60, 11)
		f := intFact(s, 500, 5)
		e := setup(t, f)
		s.Hiers[1].MustAddMember(memberName(11))
		f.MustAppend([]int32{3, 11}, []float64{5, 5, 5, 5, 0})
		before := readStale()
		v := viewAt(t, e, g(s))
		if d := readStale().since(before); d != (staleCounts{rebuilt: 1, scanned: 501}) {
			t.Fatalf("%+v, want one rebuild over all 501 rows", d)
		}
		sameAsBuild(t, "grown", e, v)
		// The rebuilt view keeps a table over the grown key space.
		f.MustAppend([]int32{4, 11}, []float64{6, 6, 6, 6, 0})
		before = readStale()
		sameAsBuild(t, "grown, next append", e, viewAt(t, e, g(s)))
		if d := readStale().since(before); d.refreshed != 1 || d.rebuilt != 0 {
			t.Fatalf("after the rebuild: %+v, want a refresh", d)
		}
	})

	t.Run("a base member under an existing parent is not a fallback", func(t *testing.T) {
		s := twoHierSchema(60, 11)
		f := intFact(s, 500, 5)
		e := New()
		if err := e.Register("T", f); err != nil {
			t.Fatal(err)
		}
		gc := mdm.MustGroupBy(s, "g", "c")
		if err := e.Materialize("T", gc); err != nil {
			t.Fatal(err)
		}
		// k grows, g does not: the key space stands, the roll-up map is
		// re-derived for the new member.
		s.Hiers[0].MustAddMember(memberName(60), memberName(60%7))
		f.MustAppend([]int32{60, 2}, []float64{5, 5, 5, 5, 0})
		before := readStale()
		sameAsBuild(t, "base growth", e, viewAt(t, e, gc))
		if d := readStale().since(before); d.refreshed != 1 || d.rebuilt != 0 || d.rows != 1 {
			t.Fatalf("%+v, want a refresh of one row", d)
		}
	})

	t.Run("the source has fewer rows than the mark", func(t *testing.T) {
		s := twoHierSchema(60, 11)
		backend := &countingBackend{f: intFact(s, 500, 5), blockRows: 64}
		seg := storage.NewSegmentTable(s, backend)
		e := setup(t, seg)
		backend.f = intFact(s, 300, 6) // another table, shorter
		seg.AdvanceVersion(1)
		before := readStale()
		v := viewAt(t, e, g(s))
		if d := readStale().since(before); d != (staleCounts{rebuilt: 1, scanned: 300}) {
			t.Fatalf("%+v, want one rebuild over the 300 rows", d)
		}
		sameAsBuild(t, "shrunk", e, v)
	})

	t.Run("no retained table", func(t *testing.T) {
		// 2 000 × 11 slots for at most 40 cells: past retainSlotsPerCell,
		// so the table is let go and the next append rebuilds — through a
		// slot table, which is kept, so the append after that refreshes.
		s := twoHierSchema(2000, 11)
		f := intFact(s, 40, 5)
		e := setup(t, f)
		if acc := viewAt(t, e, g(s)).acc; acc.t != nil {
			t.Fatalf("a table of %d slots was kept for %d cells", acc.t.size(), len(acc.slots))
		}
		appendRandom(t, rand.New(rand.NewSource(2)), s, 5, f)
		before := readStale()
		v := viewAt(t, e, g(s))
		if d := readStale().since(before); d != (staleCounts{rebuilt: 1, scanned: 45}) {
			t.Fatalf("%+v, want one rebuild over all 45 rows", d)
		}
		sameAsBuild(t, "unretained", e, v)
		if v.acc.t == nil || v.acc.sq.dense != 0 {
			t.Fatalf("the rebuild kept no slot table (dense = %d)", v.acc.sq.dense)
		}
		appendRandom(t, rand.New(rand.NewSource(3)), s, 5, f)
		before = readStale()
		sameAsBuild(t, "slot table", e, viewAt(t, e, g(s)))
		if d := readStale().since(before); d.refreshed != 1 || d.rebuilt != 0 || d.rows != 5 {
			t.Fatalf("after the rebuild: %+v, want a refresh of 5 rows", d)
		}
	})

	t.Run("the scan fails", func(t *testing.T) {
		s := twoHierSchema(60, 11)
		res := intFact(s, 500, 5)
		backend := &countingBackend{f: res, blockRows: 64}
		seg := storage.NewSegmentTable(s, backend)
		e := setup(t, seg)
		appendRandom(t, rand.New(rand.NewSource(3)), s, 100, res)
		seg.AdvanceVersion(100)
		backend.failBlock = 8 // rows 512–575: past the mark
		before := readStale()
		if v, _ := e.lookupView(Query{Fact: "T", Group: g(s)}); v != nil {
			t.Fatal("a view whose refresh failed was served")
		}
		if d := readStale().since(before); d.dropped != 1 || d.refreshed != 0 || d.rebuilt != 0 {
			t.Fatalf("%+v, want the view dropped", d)
		}
		if e.Views() != 0 || e.ViewStatsSnapshot().Bytes != 0 {
			t.Fatalf("%d views, %d bytes after the drop", e.Views(), e.ViewStatsSnapshot().Bytes)
		}
	})
}

// TestViewRefreshAcrossCompaction: WAL folds and run merges keep append
// order, so a view's mark stays a position in the fact whatever became of
// the blocks around it. A burst larger than a segment is appended past
// the mark and folded, leaving the mark inside a segment; the refresh
// must decode that segment and the ones after it — not the ones before —
// and absorb exactly the burst.
func TestViewRefreshAcrossCompaction(t *testing.T) {
	s := twoHierSchema(60, 11)
	res := intFact(s, 1000, 5)
	seg, st := segmentFact(t, res, colstore.Options{SegmentRows: 256, AutoCompactRows: -1})
	for name, cfg := range map[string]func(*Engine){
		"serial":   func(*Engine) {},
		"parallel": func(e *Engine) { e.SetParallelism(4); e.SetMorselSize(64) },
	} {
		e := New()
		cfg(e)
		if err := e.Register("T", seg); err != nil {
			t.Fatal(err)
		}
		g := mdm.MustGroupBy(s, "k", "c")
		if err := e.Materialize("T", g); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		appendRandom(t, rng, s, 30, res, seg)
		sameAsBuild(t, name+": tail", e, viewAt(t, e, g))
		mark := seg.Rows()

		appendRandom(t, rng, s, 300, res, seg)
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if info := st.Info(); info.TailRows != 0 {
			t.Fatalf("%s: compaction left %d tail rows", name, info.TailRows)
		}
		src := seg.ScanSource(storage.ColSet{}, nil)
		inside, at := false, 0
		for b := 0; b < src.Blocks(); b++ {
			inside = inside || (at < mark && mark < at+src.BlockRows(b))
			at += src.BlockRows(b)
		}
		src.Close()
		if !inside {
			t.Fatalf("%s: the mark %d fell on a segment boundary; the test needs it inside one", name, mark)
		}
		before := readStale()
		v := viewAt(t, e, g)
		if d := readStale().since(before); d != (staleCounts{refreshed: 1, rows: 300, scanned: 300}) {
			t.Fatalf("%s: after the fold: %+v, want one refresh of the 300 rows", name, d)
		}
		sameAsBuild(t, name+": folded", e, v)

		// A compaction alone moves no version: the view stays fresh.
		appendRandom(t, rng, s, 10, res, seg)
		v = viewAt(t, e, g)
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		before = readStale()
		if again := viewAt(t, e, g); again != v || readStale().since(before) != (staleCounts{}) {
			t.Fatalf("%s: a compaction disturbed a fresh view", name)
		}
		sameAsBuild(t, name+": compacted", e, v)
	}
}

// TestViewRefreshRace: readers of one group-by race a writer and a
// compaction on a segment fact. Whatever the interleaving, every row must
// be folded into the view exactly once: no reader ever sees the view's row
// count go backwards or past the fact's, and when the writer is done the
// view equals a fresh build and the refreshes have absorbed, in total,
// exactly the rows appended. The writer takes a tick from the readers
// between appends, so appends land with reads in flight on any host; no
// clock is involved.
func TestViewRefreshRace(t *testing.T) {
	const readers, appends = 8, 400
	s := twoHierSchema(60, 11)
	res := intFact(s, 1000, 5)
	seg, st := segmentFact(t, res, colstore.Options{SegmentRows: 256, AutoCompactRows: -1})
	e := New()
	e.SetParallelism(2)
	e.SetMorselSize(50)
	if err := e.Register("T", seg); err != nil {
		t.Fatal(err)
	}
	g := mdm.MustGroupBy(s, "k", "c")
	if err := e.Materialize("T", g); err != nil {
		t.Fatal(err)
	}
	before := readStale()
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s), Measures: []int{4}} // grand COUNT, rolled up from the view
	stop := make(chan struct{})
	tick := make(chan struct{}, 1)
	failed := make(chan string, readers) // one per reader
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := e.Get(q)
				if err != nil {
					failed <- err.Error()
					return
				}
				n := c.Cols[0][0]
				if n < seen || n > 1000+appends {
					failed <- fmt.Sprintf("the view counted %v rows after counting %v (the fact ends at %d)", n, seen, 1000+appends)
					return
				}
				seen = n
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}()
	}
	finish := func() {
		close(stop)
		wg.Wait()
	}
	compacted := make(chan error, 1)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < appends; i++ {
		appendRandom(t, rng, s, 1, res, seg)
		if i == appends/2 {
			go func() { compacted <- st.Compact() }()
		}
		select {
		case <-tick:
		case msg := <-failed:
			finish()
			t.Fatal(msg)
		}
	}
	finish()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-failed:
		t.Fatal(msg)
	default:
	}
	v := viewAt(t, e, g)
	sameAsBuild(t, "after the race", e, v)
	if d := readStale().since(before); d.rows != appends || d.rebuilt != 0 || d.dropped != 0 {
		t.Fatalf("%+v, want %d rows absorbed in all, by refreshes alone", d, appends)
	}
}
