package engine

import (
	"runtime"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/ssb"
)

func TestViewAnswersMatchScan(t *testing.T) {
	ds := sales.Generate(8000, 31)
	withView := New()
	if err := withView.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	noView := New()
	if err := noView.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	g := mdm.MustGroupBy(s, "product", "country")
	if err := withView.Materialize("SALES", g); err != nil {
		t.Fatal(err)
	}
	if withView.Views() != 1 {
		t.Fatalf("Views() = %d", withView.Views())
	}

	// Predicates at the group levels and at coarser levels of the same
	// hierarchies are derivable from the view.
	typeRef, ff := member(t, s, "type", "Fresh Fruit")
	countryRef, italy := member(t, s, "country", "Italy")
	qi, _ := s.MeasureIndex("quantity")
	q := Query{
		Fact:  "SALES",
		Group: g,
		Preds: []Predicate{
			{Level: typeRef, Members: []int32{ff}},
			{Level: countryRef, Members: []int32{italy}},
		},
		Measures: []int{qi},
	}
	a, err := withView.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noView.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() == 0 {
		t.Fatalf("view answer has %d cells, scan %d", a.Len(), b.Len())
	}
	for i := range a.Len() {
		coord := a.Coord(i)
		bi, ok := b.Lookup(coord)
		if !ok {
			t.Fatalf("cell %s missing from scan answer", coord.Format(s, g))
		}
		if a.Cols[0][i] != b.Cols[0][bi] {
			t.Errorf("cell %s: view %g scan %g", coord.Format(s, g), a.Cols[0][i], b.Cols[0][bi])
		}
	}
}

func TestViewNotUsedWhenPredicateFiner(t *testing.T) {
	ds := sales.Generate(2000, 33)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	// View at (type, country); a predicate on product (finer than type)
	// cannot be derived from it.
	g := mdm.MustGroupBy(s, "type", "country")
	if err := e.Materialize("SALES", g); err != nil {
		t.Fatal(err)
	}
	prodRef, apple := member(t, s, "product", "Apple")
	qi, _ := s.MeasureIndex("quantity")
	q := Query{Fact: "SALES", Group: g,
		Preds:    []Predicate{{Level: prodRef, Members: []int32{apple}}},
		Measures: []int{qi}}
	if v, _ := e.lookupView(q); v != nil {
		t.Fatal("view claimed to cover a finer predicate")
	}
	// The query still works via the fact scan.
	c, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Error("scan fallback returned nothing")
	}
}

// TestViewCoversCoarserGroup pins the lattice rule: a view at (product,
// country) answers a query at the coarser (product) by re-aggregation,
// and matches the fact scan cell for cell; a query on a hierarchy absent
// from the view misses.
func TestViewCoversCoarserGroup(t *testing.T) {
	ds := sales.Generate(1000, 35)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	noView := New()
	if err := noView.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	if err := e.Materialize("SALES", mdm.MustGroupBy(s, "product", "country")); err != nil {
		t.Fatal(err)
	}
	qi, _ := s.MeasureIndex("quantity")
	q := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product"), Measures: []int{qi}}
	if v, exact := e.lookupView(q); v == nil {
		t.Fatal("finer view did not cover the coarser query")
	} else if exact {
		t.Fatal("coarser query reported as an exact view match")
	}
	a, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noView.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() == 0 {
		t.Fatalf("rollup answer has %d cells, scan %d", a.Len(), b.Len())
	}
	for i := range a.Len() {
		coord := a.Coord(i)
		bi, ok := b.Lookup(coord)
		if !ok {
			t.Fatalf("cell %s missing from scan answer", coord.Format(s, q.Group))
		}
		if a.Cols[0][i] != b.Cols[0][bi] {
			t.Errorf("cell %s: rollup %g scan %g", coord.Format(s, q.Group), a.Cols[0][i], b.Cols[0][bi])
		}
	}
	// A hierarchy absent from the view cannot be reconstructed.
	qm := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month"), Measures: []int{qi}}
	if v, _ := e.lookupView(qm); v != nil {
		t.Fatal("view used for a hierarchy it aggregated away")
	}
}

// TestAutoAdmissionAndEviction drives the adaptive admission layer
// directly: a repeated group-by set over a resident fact earns a view on
// its second miss, and once the byte budget is tightened to one view's
// worth, admitting the next hot set evicts the least-recently-used auto
// view. A view changes no answer, so neither the admissions nor the
// eviction advance Generation; an append and an explicit Materialize
// still do.
func TestAutoAdmissionAndEviction(t *testing.T) {
	ds := sales.Generate(8000, 39)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	e.SetAutoViews(64 << 20)
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	gen := e.Generation()
	evictions := obsv.Default.Counter("assess_engine_view_evictions_total", "")
	evicted := evictions.Value()

	qa := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"), Measures: []int{qi}}
	for i := 0; i < minViewSightings; i++ {
		if _, err := e.Get(qa); err != nil {
			t.Fatal(err)
		}
	}
	if e.Views() != 1 {
		t.Fatalf("views after %d identical queries = %d, want 1", minViewSightings, e.Views())
	}

	// Budget = the first view's actual bytes: the second admission can
	// only fit by evicting it. The second hot set must use a hierarchy
	// the first view aggregated away, or the lattice would cover it and
	// no miss would ever be tallied.
	e.SetAutoViews(e.ViewStatsSnapshot().Bytes)
	qb := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month"), Measures: []int{qi}}
	for i := 0; i < minViewSightings; i++ {
		if _, err := e.Get(qb); err != nil {
			t.Fatal(err)
		}
	}
	st := e.ViewStatsSnapshot()
	if len(st.Views) != 1 {
		t.Fatalf("views after eviction = %d, want 1 (%+v)", len(st.Views), st.Views)
	}
	v := st.Views[0]
	if !v.Auto || len(v.Levels) != 1 || v.Levels[0] != "month" {
		t.Fatalf("surviving view = %+v, want the auto (month) view", v)
	}
	if st.AutoBytes > st.BudgetBytes {
		t.Fatalf("auto bytes %d exceed budget %d", st.AutoBytes, st.BudgetBytes)
	}
	if d := evictions.Value() - evicted; d != 1 {
		t.Fatalf("evictions %d, want 1", d)
	}
	if got := e.Generation(); got != gen {
		t.Fatalf("generation after admissions and an eviction = %d, want %d", got, gen)
	}

	row := make([]int32, len(ds.Fact.Keys))
	for h := range row {
		row[h] = ds.Fact.Keys[h][0]
	}
	if err := ds.Fact.Append(row, make([]float64, len(ds.Fact.Meas))); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != gen+1 {
		t.Fatalf("generation after an append = %d, want %d", got, gen+1)
	}
	if err := e.Materialize("SALES", mdm.MustGroupBy(s, "store")); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != gen+2 {
		t.Fatalf("generation after Materialize = %d, want %d", got, gen+2)
	}
}

func TestMaterializeErrors(t *testing.T) {
	ds := sales.Generate(500, 37)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	g := mdm.MustGroupBy(ds.Schema, "month")
	if err := e.Materialize("NOPE", g); err == nil {
		t.Error("materializing an unknown cube accepted")
	}
	if err := e.Materialize("SALES", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Materialize("SALES", g); err == nil {
		t.Error("duplicate materialization accepted")
	}
}

// TestViewBytesFollowHeap holds a view's byte charge, which admission
// spends its budget by, against the heap the view keeps: within 15 % for a
// whole (year, customer) view over an SSB fact, where every slot of the
// key space holds a cell.
func TestViewBytesFollowHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties what the first moved to the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ds := ssb.Generate(0.05, 7)
	e := New()
	if err := e.Register("LINEORDER", ds.Fact); err != nil {
		t.Fatal(err)
	}
	g := mdm.MustGroupBy(ds.Schema, "year", "customer")
	// A scan at the view's set first, so roll-up tables and pools are in place.
	if _, err := e.Get(Query{Fact: "LINEORDER", Group: g, Measures: []int{0}}); err != nil {
		t.Fatal(err)
	}
	before := heap()
	if err := e.Materialize("LINEORDER", g); err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	st := e.ViewStatsSnapshot()
	if cells := st.Views[0].Cells; cells != ds.Schema.Dict(g[0]).Len()*ds.Schema.Dict(g[1]).Len() {
		t.Fatalf("fixture view has %d cells, not every (year, customer)", cells)
	}
	if st.Bytes*100 < grown*85 || st.Bytes*100 > grown*115 {
		t.Errorf("view of %d cells charged %d bytes, the heap grew by %d", st.Views[0].Cells, st.Bytes, grown)
	}
	runtime.KeepAlive(e)
}
