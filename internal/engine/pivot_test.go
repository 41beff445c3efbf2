package engine

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// TestPivotFromViewMatchesScan: a POP get+pivot answered from an exact
// view pivots the same cube as one answered by a fact scan, for sibling-
// and past-shaped pivots, strict and non-strict, and so does one rolled
// up from a finer view; each call adds exactly one hit to the view it was
// answered from.
func TestPivotFromViewMatchesScan(t *testing.T) {
	ds := sales.Generate(20_000, 61)
	s := ds.Schema
	viewed := New()
	scanned := New()
	for _, e := range []*Engine{viewed, scanned} {
		if err := e.Register("SALES", ds.Fact); err != nil {
			t.Fatal(err)
		}
	}
	for _, levels := range [][]string{{"product", "country"}, {"month", "store"}} {
		if err := viewed.Materialize("SALES", mdm.MustGroupBy(s, levels...)); err != nil {
			t.Fatal(err)
		}
	}
	qi, _ := s.MeasureIndex("quantity")
	countryRef, _ := s.FindLevel("country")
	italy, _ := s.Dict(countryRef).Lookup("Italy")
	france, _ := s.Dict(countryRef).Lookup("France")
	greece, _ := s.Dict(countryRef).Lookup("Greece")

	monthRef, _ := s.FindLevel("month")
	var months []int32
	for _, m := range []string{"1997-03", "1997-04", "1997-05", "1997-06", "1997-07"} {
		id, _ := s.Dict(monthRef).Lookup(m)
		months = append(months, id)
	}
	si, _ := s.MeasureIndex("storeSales")

	cases := []struct {
		name      string
		view      []string // levels of the view that answers q
		q         Query
		level     mdm.LevelRef
		ref       int32
		neighbors []int32
	}{
		{
			name: "sibling", view: []string{"product", "country"},
			q: Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"),
				Preds:    []Predicate{{Level: countryRef, Members: []int32{italy, france}}},
				Measures: []int{qi}},
			level: countryRef, ref: italy, neighbors: []int32{france},
		},
		{
			name: "sibling-sparse", view: []string{"product", "country"},
			q: Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"),
				Preds:    []Predicate{{Level: countryRef, Members: []int32{italy, greece}}},
				Measures: []int{qi}},
			level: countryRef, ref: italy, neighbors: []int32{greece},
		},
		{
			name: "sibling-rollup", view: []string{"product", "country"},
			q: Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "type", "country"),
				Preds:    []Predicate{{Level: countryRef, Members: []int32{italy, france}}},
				Measures: []int{qi}},
			level: countryRef, ref: italy, neighbors: []int32{france},
		},
		{
			name: "past", view: []string{"month", "store"},
			q: Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month", "store"),
				Preds:    []Predicate{{Level: monthRef, Members: months}},
				Measures: []int{si}},
			level: monthRef, ref: months[4], neighbors: months[:4],
		},
	}
	// hits reads the hit count of the view at the given levels.
	hits := func(levels []string) int64 {
		for _, vi := range viewed.ViewStatsSnapshot().Views {
			if slices.Equal(vi.Levels, levels) {
				return vi.Hits
			}
		}
		t.Fatalf("no view at %v", levels)
		return 0
	}
	for _, c := range cases {
		for _, strict := range []bool{true, false} {
			before := hits(c.view)
			a, err := viewed.GetPivotedContext(context.Background(), c.q, c.level, c.ref, c.neighbors, strict, nil)
			if err != nil {
				t.Fatalf("%s from the view: %v", c.name, err)
			}
			if d := hits(c.view) - before; d != 1 {
				t.Errorf("%s strict=%v: the view counted %d hits for one pivot, want 1", c.name, strict, d)
			}
			b, err := scanned.GetPivotedContext(context.Background(), c.q, c.level, c.ref, c.neighbors, strict, nil)
			if err != nil {
				t.Fatalf("%s from a scan: %v", c.name, err)
			}
			if a.Len() != b.Len() {
				t.Fatalf("%s strict=%v: view %d cells, scan %d", c.name, strict, a.Len(), b.Len())
			}
			if len(a.Names) != len(b.Names) {
				t.Fatalf("%s: columns differ: %v vs %v", c.name, a.Names, b.Names)
			}
			for i := range a.Len() {
				coord := a.Coord(i)
				bi, ok := b.Lookup(coord)
				if !ok {
					t.Fatalf("%s strict=%v: coordinate missing from the scanned result", c.name, strict)
				}
				for j := range a.Cols {
					x, y := a.Cols[j][i], b.Cols[j][bi]
					if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
						t.Errorf("%s strict=%v %s: view %g scan %g",
							c.name, strict, a.Names[j], x, y)
					}
				}
			}
		}
	}
}

func TestGetMultipliedValidation(t *testing.T) {
	ds := sales.FigureOne()
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	countryRef, _ := s.FindLevel("country")
	q := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"), Measures: []int{qi}}
	bad := q
	bad.Fact = "NOPE"
	if _, err := e.GetMultipliedContext(context.Background(), bad, q, countryRef, nil, "b.", false); err == nil {
		t.Error("unknown left fact accepted")
	}
	if _, err := e.GetMultipliedContext(context.Background(), q, bad, countryRef, nil, "b.", false); err == nil {
		t.Error("unknown right fact accepted")
	}
	monthRef, _ := s.FindLevel("month")
	if _, err := e.GetMultipliedContext(context.Background(), q, q, monthRef, nil, "b.", false); err == nil {
		t.Error("multiply level outside the group-by accepted")
	}
}

func TestGetRollupJoinedValidation(t *testing.T) {
	ds := sales.FigureOne()
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	qc := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "product"), Measures: []int{qi}}
	qb := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "type"), Measures: []int{qi}}
	j, err := e.GetRollupJoinedContext(context.Background(), qc, qb, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() == 0 {
		t.Error("roll-up join empty")
	}
	// Benchmark group that the target does not roll up to.
	qbad := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "month"), Measures: []int{qi}}
	if _, err := e.GetRollupJoinedContext(context.Background(), qc, qbad, "benchmark.", false); err == nil {
		t.Error("non-rollup benchmark group accepted")
	}
	bad := qc
	bad.Fact = "NOPE"
	if _, err := e.GetRollupJoinedContext(context.Background(), bad, qb, "b.", false); err == nil {
		t.Error("unknown target fact accepted")
	}
	if _, err := e.GetRollupJoinedContext(context.Background(), qc, bad, "b.", false); err == nil {
		t.Error("unknown benchmark fact accepted")
	}
}
