package engine

import (
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

func viewAdmissions() int64 {
	return obsv.Default.Counter("assess_engine_view_admissions_total", "").Value()
}

// byCountryFor is `by country` sliced on one member of level.
func byCountryFor(t *testing.T, s *mdm.Schema, level string, id int32) Query {
	t.Helper()
	ref, ok := s.FindLevel(level)
	if !ok {
		t.Fatalf("level %s missing", level)
	}
	qi, _ := s.MeasureIndex("quantity")
	return Query{
		Fact:     "SALES",
		Group:    mdm.MustGroupBy(s, "country"),
		Preds:    []Predicate{{Level: ref, Members: []int32{id}}},
		Measures: []int{qi},
	}
}

// TestAdmissionKeyedByCoveringSet: statements grouped by country and
// sliced on one month each miss under the covering set (month, country),
// not under their group-by set. The view they earn answers the next month
// asked for, and no (country) view — which could serve none of them — is
// ever admitted. The set is keyed in canonical order, so materializing
// (month, country) promotes that view rather than building a second one.
func TestAdmissionKeyedByCoveringSet(t *testing.T) {
	ds := sales.Generate(8000, 41)
	e := salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	s := ds.Schema
	for m := int32(0); m < minViewSightings; m++ {
		if _, err := e.Get(byCountryFor(t, s, "month", m)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.ViewStatsSnapshot()
	if len(st.Views) != 1 || !st.Views[0].Auto || len(st.Views[0].Levels) != 2 ||
		st.Views[0].Levels[0] != "month" || st.Views[0].Levels[1] != "country" {
		t.Fatalf("views after %d month slices = %+v, want one auto (month, country) view", minViewSightings, st.Views)
	}
	q := byCountryFor(t, s, "month", minViewSightings)
	got, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.ViewStatsSnapshot(); st.Views[0].Hits != 1 {
		t.Fatalf("the next month slice hit the view %d times, want 1", st.Views[0].Hits)
	}
	want, err := salesEngine(t, ds).Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("from the view:\n%s\nscan:\n%s", got, want)
	}
	if err := e.Materialize("SALES", mdm.MustGroupBy(s, "country", "month")); err != nil {
		t.Fatalf("materializing the admitted set: %v", err)
	}
	if st := e.ViewStatsSnapshot(); len(st.Views) != 1 || st.Views[0].Auto || st.AutoBytes != 0 {
		t.Fatalf("after Materialize: views %+v, auto bytes %d; want the one view, explicit", st.Views, st.AutoBytes)
	}
}

// salesEngine is a new engine with the sales fact registered.
func salesEngine(t *testing.T, ds *sales.Dataset) *Engine {
	t.Helper()
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdmissionRentOrBuy holds admission to the rows the misses swept.
// On a resident fact every miss sweeps every row, so the second miss
// admits. On a segment store each statement sliced on one product is
// answered from postings and sweeps only that product's rows, so the
// view is bought on the miss whose running total first reaches the
// fact's rows, and not one miss before.
func TestAdmissionRentOrBuy(t *testing.T) {
	ds := sales.Generate(20000, 43)
	s := ds.Schema
	pref, _ := s.FindLevel("product")
	perProduct := make([]int, s.Dict(pref).Len())
	for _, k := range ds.Fact.Keys[pref.Hier] {
		perProduct[k]++
	}
	seg, _ := segmentFact(t, ds.Fact, colstore.Options{SegmentRows: 4096, AutoCompactRows: -1})
	rows := ds.Fact.Rows()
	for _, c := range []struct {
		name     string
		resident bool
	}{{"resident", true}, {"segment", false}} {
		e := New()
		f := ds.Fact
		if !c.resident {
			f = seg
		}
		if err := e.Register("SALES", f); err != nil {
			t.Fatal(err)
		}
		e.SetAutoViews(64 << 20)
		swept, admittedAt := 0, 0
		for p := range perProduct {
			if _, err := e.Get(byCountryFor(t, s, "product", int32(p))); err != nil {
				t.Fatal(err)
			}
			if c.resident {
				swept += rows
			} else {
				swept += perProduct[p]
			}
			earned := p+1 >= minViewSightings && swept >= rows
			if got := e.Views(); got != 0 && admittedAt == 0 {
				admittedAt = p + 1
				if !earned {
					t.Fatalf("%s: admitted on miss %d with %d of %d rows swept", c.name, p+1, swept, rows)
				}
			} else if got == 0 && earned {
				t.Fatalf("%s: no view after miss %d with %d of %d rows swept", c.name, p+1, swept, rows)
			}
		}
		switch {
		case c.resident && admittedAt != minViewSightings:
			t.Errorf("resident: admitted on miss %d, want %d", admittedAt, minViewSightings)
		case !c.resident && admittedAt <= minViewSightings:
			t.Errorf("segment: admitted on miss %d, want a later one (postings sweep a product's rows)", admittedAt)
		}
	}
}

// TestMaterializePromotesAdmittedView: materializing a set the adaptive
// layer admitted makes that view explicit in place — no error, no second
// view — so it leaves the admission budget and no later admission evicts
// it.
func TestMaterializePromotesAdmittedView(t *testing.T) {
	ds := sales.Generate(8000, 47)
	e := salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	g := mdm.MustGroupBy(s, "product", "country")
	for range minViewSightings {
		if _, err := e.Get(Query{Fact: "SALES", Group: g, Measures: []int{qi}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.ViewStatsSnapshot(); len(st.Views) != 1 || !st.Views[0].Auto {
		t.Fatalf("views = %+v, want one auto view", st.Views)
	}
	if err := e.Materialize("SALES", g); err != nil {
		t.Fatalf("materializing an admitted set: %v", err)
	}
	st := e.ViewStatsSnapshot()
	if len(st.Views) != 1 || st.Views[0].Auto || st.AutoBytes != 0 {
		t.Fatalf("after Materialize: views %+v, auto bytes %d; want the view explicit and no auto bytes", st.Views, st.AutoBytes)
	}
	if err := e.Materialize("SALES", g); err == nil {
		t.Fatal("materializing a promoted view twice accepted")
	}
	// A budget of exactly the promoted view's bytes: were it still
	// counted against the budget, the (month) admission would have to
	// evict it to fit.
	e.SetAutoViews(e.ViewStatsSnapshot().Bytes)
	for range minViewSightings {
		if _, err := e.Get(Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month"), Measures: []int{qi}}); err != nil {
			t.Fatal(err)
		}
	}
	st = e.ViewStatsSnapshot()
	if len(st.Views) != 2 {
		t.Fatalf("views = %+v, want the promoted view and the (month) view", st.Views)
	}
	for _, v := range st.Views {
		if v.Auto != (v.Levels[0] == "month") {
			t.Errorf("view %v: auto %v", v.Levels, v.Auto)
		}
	}
}

// TestAdmissionConcurrentMisses: eight goroutines miss on one covering
// set at once while a row is appended. However the misses interleave,
// the set is built exactly once, and every answer matches a scan of the
// rows the fact held before or after the append.
func TestAdmissionConcurrentMisses(t *testing.T) {
	ds := sales.Generate(8000, 49)
	e := salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	q := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"), Measures: []int{qi}}
	ref := salesEngine(t, ds)
	before, err := ref.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, len(ds.Fact.Keys))
	for h := range row {
		row[h] = ds.Fact.Keys[h][0]
	}
	vals := make([]float64, len(ds.Fact.Meas))
	vals[qi] = 1

	admitted := viewAdmissions()
	start := make(chan struct{})
	var wg sync.WaitGroup
	answers := make([]string, 8)
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := e.Get(q)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = c.String()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := ds.Fact.Append(row, vals); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	after, err := ref.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a != before.String() && a != after.String() {
			t.Errorf("goroutine %d: answer matches neither scan", i)
		}
	}
	if d := viewAdmissions() - admitted; d != 1 || e.Views() != 1 {
		t.Fatalf("admissions %d, views %d; want exactly one of each", d, e.Views())
	}
	// Misses that arrive after the build find the view, stale or not.
	if _, err := e.Get(q); err != nil {
		t.Fatal(err)
	}
	if d := viewAdmissions() - admitted; d != 1 {
		t.Fatalf("admissions after one more read %d, want 1", d)
	}
}

// TestRowsScannedCountsSwept: a scan charges assess_engine_rows_scanned_total
// with the rows it swept. A statement sliced on one product over a segment
// store with postings visits that product's rows only, not the fact's.
func TestRowsScannedCountsSwept(t *testing.T) {
	ds := sales.Generate(20000, 43)
	s := ds.Schema
	pref, _ := s.FindLevel("product")
	const product = 3
	selected := 0
	for _, k := range ds.Fact.Keys[pref.Hier] {
		if k == product {
			selected++
		}
	}
	seg, _ := segmentFact(t, ds.Fact, colstore.Options{SegmentRows: 4096, AutoCompactRows: -1})
	for name, f := range map[string]*storage.FactTable{"resident": ds.Fact, "segment": seg} {
		e := New()
		if err := e.Register("SALES", f); err != nil {
			t.Fatal(err)
		}
		want := selected
		if name == "resident" {
			want = f.Rows() // no postings: every row is visited
		}
		before := mRowsScanned.Value()
		if _, err := e.Get(byCountryFor(t, s, "product", product)); err != nil {
			t.Fatal(err)
		}
		if got := mRowsScanned.Value() - before; got != int64(want) {
			t.Errorf("%s: rows scanned grew by %d, want %d of %d rows", name, got, want, f.Rows())
		}
	}
}
