package engine

import (
	"fmt"
	"sort"
	"strings"
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

// TestAdmissionRentOrBuy holds admission to the rows of the blocks the
// misses read. A statement sliced on one product finds the product in
// every segment: it reads every row on a resident fact and every segment
// of a store, whatever its postings select, so both buy on miss
// minViewSightings. A statement sliced on one month over a store sorted
// by date reads only the segments whose zone maps hold the month, so the
// view is bought on the miss whose running total of those segments' rows
// first reaches the fact's rows, and not one miss before.
func TestAdmissionRentOrBuy(t *testing.T) {
	ds := sales.Generate(20000, 43)
	s := ds.Schema
	rows := ds.Fact.Rows()
	t.Run("product", func(t *testing.T) {
		pref, _ := s.FindLevel("product")
		seg, _ := segmentFact(t, ds.Fact, colstore.Options{SegmentRows: 4096, AutoCompactRows: -1})
		for p, read := range segmentRowsRead(t, ds.Fact, seg, pref) {
			if read != rows {
				t.Fatalf("product %d: its segments hold %d of %d rows, want every segment", p, read, rows)
			}
		}
		for name, f := range map[string]*storage.FactTable{"resident": ds.Fact, "segment": seg} {
			e := New()
			if err := e.Register("SALES", f); err != nil {
				t.Fatal(err)
			}
			e.SetAutoViews(64 << 20)
			for p := range minViewSightings {
				if got := e.Views(); got != 0 {
					t.Fatalf("%s: %d views after %d misses, want none before miss %d", name, got, p, minViewSightings)
				}
				if _, err := e.Get(byCountryFor(t, s, "product", int32(p))); err != nil {
					t.Fatal(err)
				}
			}
			if got := e.Views(); got != 1 {
				t.Errorf("%s: %d views after miss %d, want the (product, country) view", name, got, minViewSightings)
			}
		}
	})
	t.Run("month", func(t *testing.T) {
		mref, _ := s.FindLevel("month")
		byDate := sortedByHier(t, ds.Fact, mref.Hier)
		seg, _ := segmentFact(t, byDate, colstore.Options{SegmentRows: 1024, AutoCompactRows: -1})
		perMonth := segmentRowsRead(t, byDate, seg, mref)
		e := New()
		if err := e.Register("SALES", seg); err != nil {
			t.Fatal(err)
		}
		e.SetAutoViews(64 << 20)
		pruned := storePruned()
		read, admittedAt := 0, 0
		for m := range perMonth {
			if _, err := e.Get(byCountryFor(t, s, "month", int32(m))); err != nil {
				t.Fatal(err)
			}
			read += perMonth[m]
			earned := m+1 >= minViewSightings && read >= rows
			if got := e.Views(); got != 0 && admittedAt == 0 {
				admittedAt = m + 1
				if !earned {
					t.Fatalf("admitted on miss %d with %d of %d rows read", m+1, read, rows)
				}
			} else if got == 0 && earned {
				t.Fatalf("no view after miss %d with %d of %d rows read", m+1, read, rows)
			}
		}
		if admittedAt <= minViewSightings {
			t.Errorf("admitted on miss %d, want a later one (zone maps confine a month to its segments)", admittedAt)
		}
		if storePruned() == pruned {
			t.Error("no segment pruned: the month slices read the whole store")
		}
	})
}

// TestAdmissionSameViewsOnBothBackends: one stream of statements over a
// resident fact and over its segment copy, where no slicer lets a segment
// be pruned or skipped, admits the same covering sets at the same miss
// and gives the same answers, although the store's postings select only
// a slice of each segment.
func TestAdmissionSameViewsOnBothBackends(t *testing.T) {
	ds := sales.Generate(20000, 59)
	s := ds.Schema
	seg, _ := segmentFact(t, ds.Fact, colstore.Options{SegmentRows: 4096, AutoCompactRows: -1})
	qi, _ := s.MeasureIndex("quantity")
	sliced := func(level string, id int32, group ...string) Query {
		ref, ok := s.FindLevel(level)
		if !ok {
			t.Fatalf("level %s missing", level)
		}
		return Query{Fact: "SALES", Group: mdm.MustGroupBy(s, group...), Measures: []int{qi},
			Preds: []Predicate{{Level: ref, Members: []int32{id}}}}
	}
	var stream []Query
	for i := range int32(4) {
		stream = append(stream,
			sliced("product", i, "country"),
			sliced("category", i%2, "year"),
			sliced("gender", i%2, "city"),
			Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month"), Measures: []int{qi}},
			sliced("country", i, "customer", "date"), // too many cells to admit
		)
	}
	engines := map[string]*Engine{}
	for name, f := range map[string]*storage.FactTable{"resident": ds.Fact, "segment": seg} {
		e := New()
		if err := e.Register("SALES", f); err != nil {
			t.Fatal(err)
		}
		e.SetAutoViews(64 << 20)
		engines[name] = e
	}
	viewSets := func(e *Engine) string {
		var sets []string
		for _, v := range e.ViewStatsSnapshot().Views {
			sets = append(sets, fmt.Sprint(v.Levels))
		}
		sort.Strings(sets)
		return strings.Join(sets, " ")
	}
	pruned, skipped := storePruned(), storeSkipped()
	for i, q := range stream {
		res, err := engines["resident"].Get(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engines["segment"].Get(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != res.String() {
			t.Fatalf("statement %d: segment answer\n%s\nresident answer\n%s", i, got, res)
		}
		if r, g := viewSets(engines["resident"]), viewSets(engines["segment"]); r != g {
			t.Fatalf("after statement %d: resident views [%s], segment views [%s]", i, r, g)
		}
	}
	if n := engines["segment"].Views(); n != 4 {
		t.Errorf("%d views admitted, want 4: [%s]", n, viewSets(engines["segment"]))
	}
	if storePruned() != pruned || storeSkipped() != skipped {
		t.Error("a segment was pruned or skipped: the stream does not hold both backends to one rent")
	}
}

// storePruned and storeSkipped read the segment store's counters of
// segments pruned by zone maps and skipped for holding no match.
func storePruned() int64 {
	return obsv.Default.Counter("assess_store_pruned_total", "").Value()
}

func storeSkipped() int64 {
	return obsv.Default.Counter("assess_store_lazy_skipped_total", "").Value()
}

// sortedByHier is a resident copy of f with its rows ordered by their key
// on hierarchy h (stably), so a store saved from it has segments that zone
// maps tell apart on h.
func sortedByHier(t *testing.T, f *storage.FactTable, h int) *storage.FactTable {
	t.Helper()
	order := make([]int, f.Rows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return f.Keys[h][order[a]] < f.Keys[h][order[b]] })
	cols := storage.BlockCols{Rows: len(order)}
	for _, k := range f.Keys {
		col := make([]int32, len(order))
		for i, r := range order {
			col[i] = k[r]
		}
		cols.Keys = append(cols.Keys, col)
	}
	for _, m := range f.Meas {
		col := make([]float64, len(order))
		for i, r := range order {
			col[i] = m[r]
		}
		cols.Meas = append(cols.Meas, col)
	}
	out := storage.NewFactTable(f.Schema)
	if err := out.AppendBlock(cols); err != nil {
		t.Fatal(err)
	}
	return out
}

// segmentRowsRead is, per member of level, the rows of the segments of
// seg that hold at least one of the member's rows: what a scan sliced on
// the member reads. seg must have been saved from f, whose rows give the
// segments' contents in order; the boundaries are read off the store.
func segmentRowsRead(t *testing.T, f, seg *storage.FactTable, level mdm.LevelRef) []int {
	t.Helper()
	h := f.Schema.Hiers[level.Hier]
	up := h.LevelMap(0, level.Level)
	read := make([]int, h.Dict(level.Level).Len())
	src := seg.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	lo := 0
	for b := range src.Blocks() {
		n := src.BlockRows(b)
		holds := make([]bool, len(read))
		for _, k := range f.Keys[level.Hier][lo : lo+n] {
			holds[up[k]] = true
		}
		for m, ok := range holds {
			if ok {
				read[m] += n
			}
		}
		lo += n
	}
	if lo != f.Rows() {
		t.Fatalf("store blocks hold %d rows, fact %d", lo, f.Rows())
	}
	return read
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

// TestAdmissionSkipsInstalledAndEmptySets holds the tally to the
// installed-view rule: a miss whose covering set already has a view,
// materialized or admitted, leaves the tally untouched and buys nothing,
// and so does a miss on the grand total, whose covering set is empty.
func TestAdmissionSkipsInstalledAndEmptySets(t *testing.T) {
	ds := sales.Generate(8000, 53)
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	rows := ds.Fact.Rows()
	tally := func(e *Engine) int {
		e.autoMu.Lock()
		defer e.autoMu.Unlock()
		return len(e.auto.tally)
	}
	miss := func(e *Engine, q Query) {
		for range minViewSightings + 1 {
			e.noteViewMiss(q, rows)
		}
	}

	// A materialized view: a query sliced on one month misses under its
	// covering set (month, country), which is installed.
	e := salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	if err := e.Materialize("SALES", mdm.MustGroupBy(s, "country", "month")); err != nil {
		t.Fatal(err)
	}
	miss(e, byCountryFor(t, s, "month", 0))
	if n, v := tally(e), e.Views(); n != 0 || v != 1 {
		t.Errorf("materialized set: %d tally entries and %d views after its misses, want 0 and 1", n, v)
	}

	// An admitted view: once bought, further misses on its set neither
	// tally nor buy it again.
	e = salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	q := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"), Measures: []int{qi}}
	for range minViewSightings {
		if _, err := e.Get(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.ViewStatsSnapshot(); len(st.Views) != 1 || !st.Views[0].Auto {
		t.Fatalf("views = %+v, want one admitted view", st.Views)
	}
	admissions := viewAdmissions()
	miss(e, q)
	if n, v, a := tally(e), e.Views(), viewAdmissions()-admissions; n != 0 || v != 1 || a != 0 {
		t.Errorf("admitted set: %d tally entries, %d views and %d admissions after its misses, want 0, 1 and 0", n, v, a)
	}

	// The grand total: its covering set is empty, so nothing is tallied
	// however often it misses.
	e = salesEngine(t, ds)
	e.SetAutoViews(64 << 20)
	for range minViewSightings + 1 {
		if _, err := e.Get(Query{Fact: "SALES", Measures: []int{qi}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, v := tally(e), e.Views(); n != 0 || v != 0 {
		t.Errorf("grand total: %d tally entries and %d views after its misses, want none", n, v)
	}
}
