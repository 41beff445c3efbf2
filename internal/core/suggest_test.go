package core

import (
	"math"
	"slices"
	"testing"

	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/testutil"
)

func TestLabelEntropy(t *testing.T) {
	cases := []struct {
		labels []string
		want   float64
	}{
		{nil, 0},
		{[]string{"a", "a", "a"}, 0},
		{[]string{"a", "b"}, 1},
		{[]string{"a", "b", "c", "d"}, 2},
	}
	for _, c := range cases {
		if got := labelEntropy(coded(c.labels...)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("entropy(%v) = %g, want %g", c.labels, got, c.want)
		}
	}
	// Null labels carry no assessment information: a half-null result is
	// less interesting than a fully-labeled balanced one.
	full := labelEntropy(coded("a", "b", "a", "b"))
	nulls := labelEntropy(coded("a", "b", "null", "null"))
	if nulls >= full {
		t.Errorf("null-heavy entropy %g not below full %g", nulls, full)
	}
	// Cells are counted by name: two codes naming one label are one label.
	twice := &labeling.Column{Codes: []uint8{0, 1, 2, 2}, Names: []string{"a", "a", "b"}}
	if got := labelEntropy(twice); math.Abs(got-1) > 1e-12 {
		t.Errorf("entropy of a, a, b, b under two codes for a = %g, want 1", got)
	}
}

// coded is labels as a label column.
func coded(labels ...string) *labeling.Column {
	c := testutil.LabelColumn(labels...)
	return &c
}

// TestSuggestNearestSiblings: the sibling candidates of a sliced member
// are the members nearest it in the level's sorted order, alternating
// before and after, up to the cap: for 1997 among 1992–1998, 1996, 1998,
// 1995 and 1994, never the first years of the level.
func TestSuggestNearestSiblings(t *testing.T) {
	ds := ssb.Generate(0.001, 1)
	s := NewSession()
	if err := s.RegisterCube("LINEORDER", ds.Fact); err != nil {
		t.Fatal(err)
	}
	st, err := parser.ParsePartial(`with LINEORDER for year = '1997' by customer, year assess revenue`)
	if err != nil {
		t.Fatal(err)
	}
	var siblings []string
	for _, c := range s.benchmarkCandidates(ds.Fact.Schema, st) {
		if c.bench.Kind == parser.BenchSibling {
			siblings = append(siblings, c.bench.Member)
		}
	}
	if want := []string{"1996", "1998", "1995", "1994"}; !slices.Equal(siblings, want) {
		t.Errorf("sibling candidates of 1997 = %v, want %v", siblings, want)
	}

	years := []string{"1992", "1993", "1994", "1995", "1996", "1997", "1998"}
	for _, c := range []struct {
		pos   int
		found bool
		want  []string
	}{
		{0, true, []string{"1993", "1994", "1995", "1996"}},  // the first: after it only
		{6, true, []string{"1997", "1996", "1995", "1994"}},  // the last: before it only
		{3, false, []string{"1994", "1995", "1993", "1996"}}, // not a member: around where it would be
	} {
		if got := nearest(years, c.pos, c.found, maxSiblingCandidates); !slices.Equal(got, c.want) {
			t.Errorf("nearest(%d, found %v) = %v, want %v", c.pos, c.found, got, c.want)
		}
	}
	if got := nearest(years[:2], 0, true, maxSiblingCandidates); !slices.Equal(got, []string{"1993"}) {
		t.Errorf("nearest of two members = %v, want the other", got)
	}
}

func TestBenchmarkCandidatesShapes(t *testing.T) {
	ds := sales.Generate(1000, 3)
	s := NewSession()
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	sugs, err := s.Suggest(`with SALES for country = 'Italy' by product, country assess quantity`, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	kinds := map[string]bool{}
	for _, sg := range sugs {
		k, err := s.BenchmarkKind(sg.Statement)
		if err != nil {
			t.Fatalf("%s: %v", sg.Statement, err)
		}
		kinds[k.String()] = true
	}
	for _, want := range []string{"Sibling", "Constant", "Ancestor"} {
		if !kinds[want] {
			t.Errorf("no %s candidate among the suggestions (%v)", want, kinds)
		}
	}
}

func TestSuggestCapsSiblingCandidates(t *testing.T) {
	// The SALES country level has 4 siblings of Italy; all fit under the
	// cap, but the total candidate count must respect max.
	ds := sales.Generate(2000, 5)
	s := NewSession()
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	sugs, err := s.Suggest(`with SALES for country = 'Italy' by product, country assess quantity`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) > 2 {
		t.Errorf("%d suggestions, want ≤ 2", len(sugs))
	}
}

func TestSuggestPastCandidateForTemporalSlice(t *testing.T) {
	ds := sales.Generate(30_000, 7)
	s := NewSession()
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	sugs, err := s.Suggest(`with SALES for month = '1997-06' by month, store assess storeSales`, 20)
	if err != nil {
		t.Fatal(err)
	}
	sawPast := false
	for _, sg := range sugs {
		k, err := s.BenchmarkKind(sg.Statement)
		if err != nil {
			continue
		}
		if k.String() == "Past" {
			sawPast = true
		}
	}
	if !sawPast {
		t.Error("no past-benchmark candidate for a temporal slice")
	}
}
