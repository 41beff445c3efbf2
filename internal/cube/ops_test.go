package cube

import (
	"math"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
)

// monthFixture builds a (month, store) cube with a linear series for one
// store.
func monthFixture(t *testing.T) (*mdm.Schema, *Cube, []int32) {
	t.Helper()
	hd := mdm.NewHierarchy("Date", "month")
	months := []string{"1997-03", "1997-04", "1997-05", "1997-06", "1997-07"}
	ids := make([]int32, len(months))
	for i, m := range months {
		ids[i] = hd.MustAddMember(m)
	}
	hs := mdm.NewHierarchy("Store", "store")
	hs.MustAddMember("S1")
	hs.MustAddMember("S2")
	s := mdm.NewSchema("SALES", []*mdm.Hierarchy{hd, hs},
		[]mdm.Measure{{Name: "sales", Op: mdm.AggSum}})
	g := mdm.MustGroupBy(s, "month", "store")
	c := New(s, g, "sales")
	for i, id := range ids {
		c.MustAddCell(mdm.Coordinate{id, 0}, float64(100+10*i))
		if i < 4 { // S2 misses the last month
			c.MustAddCell(mdm.Coordinate{id, 1}, float64(200+5*i))
		}
	}
	return s, c, ids
}

func TestMultiplyJoin(t *testing.T) {
	s, c, ids := monthFixture(t)
	month, _ := s.FindLevel("month")
	// Target = the 1997-07 slice; benchmark = the four previous months.
	target := New(s, c.Group, "sales")
	target.MustAddCell(mdm.Coordinate{ids[4], 0}, 140)
	target.MustAddCell(mdm.Coordinate{ids[4], 1}, 999) // S2 has no July in c, synthetic
	past := ids[:4]

	inner, err := MultiplyJoin(target, c, month, past, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	// S1 matches all four months, S2 matches four months too → 8 rows.
	if inner.Len() != 8 {
		t.Fatalf("inner multiply join has %d rows, want 8", inner.Len())
	}
	bj, ok := inner.MeasureIndex("benchmark.sales")
	if !ok {
		t.Fatal("benchmark.sales missing")
	}
	mj, _ := inner.MeasureIndex("sales")
	// Every output row repeats the target's measure.
	for i := range inner.Len() {
		coord := inner.Coord(i)
		store := coord[1]
		wantTarget := 140.0
		if store == 1 {
			wantTarget = 999
		}
		if inner.Cols[mj][i] != wantTarget {
			t.Errorf("row %d: target measure %g, want %g", i, inner.Cols[mj][i], wantTarget)
		}
		if math.IsNaN(inner.Cols[bj][i]) {
			t.Errorf("row %d: inner join produced NaN", i)
		}
	}
}

func TestMultiplyJoinOuterFillsAllSlices(t *testing.T) {
	s, c, ids := monthFixture(t)
	month, _ := s.FindLevel("month")
	target := New(s, c.Group, "sales")
	target.MustAddCell(mdm.Coordinate{ids[4], 0}, 140)
	// Benchmark cube missing 1997-04 for S1.
	b := New(s, c.Group, "sales")
	b.MustAddCell(mdm.Coordinate{ids[0], 0}, 100)
	b.MustAddCell(mdm.Coordinate{ids[2], 0}, 120)

	outer, err := MultiplyJoin(target, b, month, ids[:4], "benchmark.", true)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Len() != 4 {
		t.Fatalf("outer multiply join has %d rows, want 4 (one per slice member)", outer.Len())
	}
	inner, err := MultiplyJoin(target, b, month, ids[:4], "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 2 {
		t.Fatalf("inner multiply join has %d rows, want 2", inner.Len())
	}
	bj, _ := outer.MeasureIndex("benchmark.sales")
	nans := 0
	for i := range outer.Len() {
		if math.IsNaN(outer.Cols[bj][i]) {
			nans++
		}
	}
	if nans != 2 {
		t.Errorf("outer join has %d NaN rows, want 2", nans)
	}
}

func TestMultiplyJoinValidation(t *testing.T) {
	s, c, _ := monthFixture(t)
	month, _ := s.FindLevel("month")
	g2 := mdm.MustGroupBy(s, "store")
	other := New(s, g2, "sales")
	if _, err := MultiplyJoin(c, other, month, nil, "b.", false); err == nil {
		t.Error("multiply join across different group-by sets accepted")
	}
	store, _ := s.FindLevel("store")
	_ = store
	bad := mdm.LevelRef{Hier: 0, Level: 0}
	onlyStore := New(s, g2, "sales")
	if _, err := MultiplyJoin(onlyStore, onlyStore, bad, nil, "b.", false); err == nil {
		t.Error("multiply join on level outside the group-by accepted")
	}
}

func TestProject(t *testing.T) {
	_, c, _ := monthFixture(t)
	if err := c.AppendMeasure("pred", make([]float64, c.Len())); err != nil {
		t.Fatal(err)
	}
	p, err := c.Project([]string{"pred"}, map[string]string{"pred": "sales2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Names) != 1 || p.Names[0] != "sales2" {
		t.Errorf("projected names = %v", p.Names)
	}
	if p.Len() != c.Len() {
		t.Errorf("projection changed cardinality: %d vs %d", p.Len(), c.Len())
	}
	// Lookups still work on the shared index.
	if _, ok := p.Lookup(c.Coord(0)); !ok {
		t.Error("projection lost the coordinate index")
	}
	if _, err := c.Project([]string{"nosuch"}, nil); err == nil {
		t.Error("projection of missing column accepted")
	}
	if _, err := c.Project([]string{"sales", "pred"}, map[string]string{"pred": "sales"}); err == nil {
		t.Error("projection with duplicate output names accepted")
	}
}

func TestReplaceSlice(t *testing.T) {
	s, c, ids := monthFixture(t)
	month, _ := s.FindLevel("month")
	// Take the June slice and move it to July.
	june := New(s, c.Group, "sales")
	for i := range c.Len() {
		coord := c.Coord(i)
		if coord[0] == ids[3] {
			june.MustAddCell(coord.Clone(), c.Cols[0][i])
		}
	}
	moved, err := june.ReplaceSlice(month, ids[4])
	if err != nil {
		t.Fatal(err)
	}
	if moved.Len() != june.Len() {
		t.Fatalf("ReplaceSlice changed cardinality")
	}
	for i, id := range moved.Keys[0] {
		if id != ids[4] {
			t.Errorf("coordinate not replaced: %v", moved.Coord(i))
		}
	}
	// Replacing a multi-slice cube collides.
	if _, err := c.ReplaceSlice(month, ids[0]); err == nil {
		t.Error("ReplaceSlice on a multi-slice cube accepted (coordinates collide)")
	}
	// Level must be in the group-by set.
	g2 := mdm.MustGroupBy(s, "store")
	c2 := New(s, g2, "sales")
	if _, err := c2.ReplaceSlice(month, ids[0]); err == nil {
		t.Error("ReplaceSlice on a missing level accepted")
	}
}

func TestPivotExplicitNeighborsMissingInData(t *testing.T) {
	s, c, ids := monthFixture(t)
	month, _ := s.FindLevel("month")
	// Neighbors include a month with no cells at all: non-strict pivot
	// must still produce its column, filled with NaN.
	empty := mdm.NewHierarchy("Date", "month") // ensure id is valid in dict
	_ = empty
	p, err := Pivot(c, month, ids[4], ids[:4], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Names) != 5 {
		t.Fatalf("pivot columns = %v", p.Names)
	}
	// S1 has all months; its row is complete. S2 has no July → absent.
	if p.Len() != 1 {
		t.Fatalf("pivot kept %d cells, want 1 (only S1 has the reference slice)", p.Len())
	}
}
