package engine

import (
	"context"
	"math"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

func figureOneEngine(t *testing.T) (*Engine, *mdm.Schema) {
	t.Helper()
	ds := sales.FigureOne()
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	return e, ds.Schema
}

func member(t *testing.T, s *mdm.Schema, level, name string) (mdm.LevelRef, int32) {
	t.Helper()
	ref, ok := s.FindLevel(level)
	if !ok {
		t.Fatalf("level %s missing", level)
	}
	id, ok := s.Dict(ref).Lookup(name)
	if !ok {
		t.Fatalf("member %s of %s missing", name, level)
	}
	return ref, id
}

func freshFruitQuery(t *testing.T, s *mdm.Schema, country string) Query {
	t.Helper()
	typeRef, ff := member(t, s, "type", "Fresh Fruit")
	countryRef, c := member(t, s, "country", country)
	qi, _ := s.MeasureIndex("quantity")
	return Query{
		Fact:  "SALES",
		Group: mdm.MustGroupBy(s, "product", "country"),
		Preds: []Predicate{
			{Level: typeRef, Members: []int32{ff}},
			{Level: countryRef, Members: []int32{c}},
		},
		Measures: []int{qi},
	}
}

func cellValue(t *testing.T, s *mdm.Schema, c interface {
	MeasureIndex(string) (int, bool)
}, name string) int {
	t.Helper()
	j, ok := c.MeasureIndex(name)
	if !ok {
		t.Fatalf("measure %s missing", name)
	}
	return j
}

func TestGetExampleTwoSeven(t *testing.T) {
	e, s := figureOneEngine(t)
	c, err := e.Get(freshFruitQuery(t, s, "Italy"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("|C| = %d, want 3", c.Len())
	}
	want := map[string]float64{"Apple": 100, "Pear": 90, "Lemon": 30}
	qj := cellValue(t, s, c, "quantity")
	for i := range c.Len() {
		coord := c.Coord(i)
		prod := s.Dict(c.Group[0]).Name(coord[0])
		if got := c.Cols[qj][i]; got != want[prod] {
			t.Errorf("%s: quantity = %g, want %g", prod, got, want[prod])
		}
	}
}

func TestGetUnknownCubeAndBadQuery(t *testing.T) {
	e, s := figureOneEngine(t)
	q := freshFruitQuery(t, s, "Italy")
	q.Fact = "NOPE"
	if _, err := e.Get(q); err == nil {
		t.Fatal("unknown cube accepted")
	}
	q = freshFruitQuery(t, s, "Italy")
	q.Measures = []int{99}
	if _, err := e.Get(q); err == nil {
		t.Fatal("measure index out of range accepted")
	}
	q = freshFruitQuery(t, s, "Italy")
	q.Preds[0].Level = mdm.LevelRef{Hier: 99, Level: 0}
	if _, err := e.Get(q); err == nil {
		t.Fatal("predicate hierarchy out of range accepted")
	}
	q = freshFruitQuery(t, s, "Italy")
	q.Preds[0].Level = mdm.LevelRef{Hier: 0, Level: 99}
	if _, err := e.Get(q); err == nil {
		t.Fatal("predicate level out of range accepted")
	}
	q = freshFruitQuery(t, s, "Italy")
	q.Group = mdm.GroupBy{{Hier: 99, Level: 0}}
	if _, err := e.Get(q); err == nil {
		t.Fatal("group-by hierarchy out of range accepted")
	}
	for _, level := range []int{-1, 99} {
		q.Group = mdm.GroupBy{{Hier: 0, Level: level}}
		if _, err := e.Get(q); err == nil {
			t.Fatalf("group-by level %d accepted", level)
		}
	}
	q = freshFruitQuery(t, s, "Italy")
	if _, err := e.ScanWithOps(context.Background(), q, make([]mdm.AggOp, len(q.Measures)+1), nil); err == nil {
		t.Fatal("more operators than measures accepted")
	}
}

func TestGetJoinedSibling(t *testing.T) {
	e, s := figureOneEngine(t)
	qc := freshFruitQuery(t, s, "Italy")
	qb := freshFruitQuery(t, s, "France")
	product, _ := s.FindLevel("product")
	d, err := pushJoin(e, qc, qb, []mdm.LevelRef{product}, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("|D| = %d, want 3", d.Len())
	}
	qj := cellValue(t, s, d, "quantity")
	bj := cellValue(t, s, d, "benchmark.quantity")
	want := map[string][2]float64{
		"Apple": {100, 150}, "Pear": {90, 110}, "Lemon": {30, 20},
	}
	for i := range d.Len() {
		coord := d.Coord(i)
		prod := s.Dict(d.Group[0]).Name(coord[0])
		if d.Cols[qj][i] != want[prod][0] || d.Cols[bj][i] != want[prod][1] {
			t.Errorf("%s: (%g, %g), want %v", prod, d.Cols[qj][i], d.Cols[bj][i], want[prod])
		}
	}
}

func TestGetPivotedSibling(t *testing.T) {
	e, s := figureOneEngine(t)
	// One get covering both slices (POP, Example 5.4).
	q := freshFruitQuery(t, s, "Italy")
	countryRef, italy := member(t, s, "country", "Italy")
	_, france := member(t, s, "country", "France")
	q.Preds[1] = Predicate{Level: countryRef, Members: []int32{italy, france}}
	d, err := pushPivot(e, q, countryRef, italy, []int32{france}, true,
		func(m, member string) string { return "qtyFrance" })
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("|D'| = %d, want 3", d.Len())
	}
	qf := cellValue(t, s, d, "qtyFrance")
	want := map[string]float64{"Apple": 150, "Pear": 110, "Lemon": 20}
	for i := range d.Len() {
		coord := d.Coord(i)
		prod := s.Dict(d.Group[0]).Name(coord[0])
		if got := d.Cols[qf][i]; got != want[prod] {
			t.Errorf("%s: qtyFrance = %g, want %g", prod, got, want[prod])
		}
	}
}

func TestJOPEqualsNPEqualsPOP(t *testing.T) {
	// Property P3 (Section 5.1): joining slices separately equals getting
	// them together and pivoting. Verified on the generated dataset.
	ds := sales.Generate(5000, 1)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	qc := freshFruitQuery(t, s, "Italy")
	qb := freshFruitQuery(t, s, "France")
	product, _ := s.FindLevel("product")
	countryRef, italy := member(t, s, "country", "Italy")
	_, france := member(t, s, "country", "France")

	jop, err := pushJoin(e, qc, qb, []mdm.LevelRef{product}, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	qAll := freshFruitQuery(t, s, "Italy")
	qAll.Preds[1] = Predicate{Level: countryRef, Members: []int32{italy, france}}
	pop, err := pushPivot(e, qAll, countryRef, italy, []int32{france}, true,
		func(m, member string) string { return "benchmark." + m })
	if err != nil {
		t.Fatal(err)
	}
	if jop.Len() != pop.Len() {
		t.Fatalf("JOP has %d cells, POP has %d", jop.Len(), pop.Len())
	}
	bj := cellValue(t, s, jop, "benchmark.quantity")
	bp := cellValue(t, s, pop, "benchmark.quantity")
	for i := range jop.Len() {
		coord := jop.Coord(i)
		pi, ok := pop.Lookup(coord)
		if !ok {
			t.Fatalf("coordinate %s missing from POP result", coord.Format(s, jop.Group))
		}
		if jop.Cols[bj][i] != pop.Cols[bp][pi] {
			t.Errorf("benchmark mismatch at %s: %g vs %g",
				coord.Format(s, jop.Group), jop.Cols[bj][i], pop.Cols[bp][pi])
		}
	}
}

func TestAggregationOperators(t *testing.T) {
	// Build a schema exercising avg/min/max/count.
	h := mdm.NewHierarchy("K", "k")
	h.MustAddMember("a")
	h.MustAddMember("b")
	s := mdm.NewSchema("T", []*mdm.Hierarchy{h}, []mdm.Measure{
		{Name: "s", Op: mdm.AggSum},
		{Name: "a", Op: mdm.AggAvg},
		{Name: "lo", Op: mdm.AggMin},
		{Name: "hi", Op: mdm.AggMax},
		{Name: "n", Op: mdm.AggCount},
	})
	f := newFact(t, s, [][]float64{
		{1, 1, 1, 1, 0}, {3, 3, 3, 3, 0}, // member a
		{10, 10, 10, 10, 0}, // member b
	}, []int32{0, 0, 1})
	e := New()
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	c, err := e.Get(Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := s.Dict(mdm.LevelRef{}).Lookup("a")
	i, ok := c.Lookup(mdm.Coordinate{ai})
	if !ok {
		t.Fatal("cell a missing")
	}
	want := []float64{4, 2, 1, 3, 2}
	for j, w := range want {
		if got := c.Cols[j][i]; got != w {
			t.Errorf("measure %s = %g, want %g", c.Names[j], got, w)
		}
	}
}

func TestGetEmptyResult(t *testing.T) {
	e, s := figureOneEngine(t)
	q := freshFruitQuery(t, s, "Spain") // no fresh fruit rows in Spain
	c, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("|C| = %d, want 0 (sparse cube)", c.Len())
	}
}

func TestCardinality(t *testing.T) {
	e, s := figureOneEngine(t)
	n, err := e.Cardinality(freshFruitQuery(t, s, "Italy"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("|C| = %d, want 3", n)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	e, _ := figureOneEngine(t)
	ds := sales.FigureOne()
	if err := e.Register("SALES", ds.Fact); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, ok := e.Fact("SALES"); !ok {
		t.Error("registered fact not found")
	}
	if len(e.Facts()) != 1 {
		t.Errorf("Facts() = %v", e.Facts())
	}
}

func TestWireRoundTripNaN(t *testing.T) {
	e, s := figureOneEngine(t)
	qc := freshFruitQuery(t, s, "Italy")
	// Outer join against an empty benchmark: NaNs must survive the wire.
	qb := freshFruitQuery(t, s, "Spain")
	product, _ := s.FindLevel("product")
	d, err := pushJoin(e, qc, qb, []mdm.LevelRef{product}, "benchmark.", true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("|D| = %d, want 3", d.Len())
	}
	bj := cellValue(t, s, d, "benchmark.quantity")
	for i := range d.Len() {
		if !math.IsNaN(d.Cols[bj][i]) {
			t.Errorf("cell %d: NaN lost in transfer: %g", i, d.Cols[bj][i])
		}
	}
}
