package mdm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func productHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h := NewHierarchy("Product", "product", "type", "category")
	h.MustAddMember("Apple", "Fresh Fruit", "Fruit")
	h.MustAddMember("Lemon", "Fresh Fruit", "Fruit")
	h.MustAddMember("Canned Peach", "Canned Fruit", "Fruit")
	h.MustAddMember("milk", "Milk Products", "Dairy")
	return h
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	hp := productHierarchy(t)
	hs := NewHierarchy("Store", "store", "city", "country")
	hs.MustAddMember("SmartMart", "Bologna", "Italy")
	hs.MustAddMember("HyperParis", "Paris", "France")
	hd := NewHierarchy("Date", "date", "month", "year")
	hd.MustAddMember("1997-04-15", "1997-04", "1997")
	hd.MustAddMember("1997-05-01", "1997-05", "1997")
	return NewSchema("SALES", []*Hierarchy{hd, hp, hs}, []Measure{
		{Name: "quantity", Op: AggSum},
		{Name: "storeSales", Op: AggSum},
	})
}

func TestHierarchyRollup(t *testing.T) {
	h := productHierarchy(t)
	apple, ok := h.Dict(0).Lookup("Apple")
	if !ok {
		t.Fatal("Apple not registered")
	}
	typ := h.Rollup(apple, 0, 1)
	if got := h.Dict(1).Name(typ); got != "Fresh Fruit" {
		t.Errorf("Apple rolls up to type %q, want Fresh Fruit", got)
	}
	cat := h.Rollup(apple, 0, 2)
	if got := h.Dict(2).Name(cat); got != "Fruit" {
		t.Errorf("Apple rolls up to category %q, want Fruit", got)
	}
	if got := h.Rollup(apple, 0, 0); got != apple {
		t.Errorf("rollup to same level changed the member: %d != %d", got, apple)
	}
}

func TestHierarchyConflictingParent(t *testing.T) {
	h := productHierarchy(t)
	if _, err := h.AddMember("Apple", "Canned Fruit", "Fruit"); err == nil {
		t.Fatal("conflicting parent accepted: part-of order must be a function")
	}
	// Consistent re-registration is fine.
	if _, err := h.AddMember("Apple", "Fresh Fruit", "Fruit"); err != nil {
		t.Fatalf("consistent re-registration rejected: %v", err)
	}
}

func TestHierarchyWrongPathLength(t *testing.T) {
	h := productHierarchy(t)
	if _, err := h.AddMember("Apple", "Fresh Fruit"); err == nil {
		t.Fatal("short member path accepted")
	}
}

func TestHierarchyValidate(t *testing.T) {
	h := productHierarchy(t)
	if err := h.Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	// Interning a base member without AddMember leaves it parentless.
	h.Dict(0).Intern("orphan")
	if err := h.Validate(); err == nil {
		t.Fatal("orphan member passed validation")
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("a")
	b := d.Intern("b")
	if a == b {
		t.Fatal("distinct names got the same id")
	}
	if got := d.Intern("a"); got != a {
		t.Errorf("re-intern changed id: %d != %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup("c"); ok {
		t.Error("lookup of missing member succeeded")
	}
	if got := d.SortedNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("SortedNames = %v", got)
	}
}

func TestGroupByNormalizationAndEqual(t *testing.T) {
	s := testSchema(t)
	g1 := MustGroupBy(s, "product", "country")
	g2 := MustGroupBy(s, "country", "product")
	if !g1.Equal(g2) {
		t.Error("group-by sets with the same levels in different order are not equal")
	}
	g3 := MustGroupBy(s, "product", "city")
	if g1.Equal(g3) {
		t.Error("distinct group-by sets compare equal")
	}
}

func TestGroupByRejectsSameHierarchyTwice(t *testing.T) {
	s := testSchema(t)
	if _, err := NewGroupBy(s, "product", "type"); err == nil {
		t.Fatal("two levels of one hierarchy accepted in a group-by set")
	}
	if _, err := NewGroupBy(s, "nosuchlevel"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestGroupByRollsUpTo(t *testing.T) {
	s := testSchema(t)
	g0 := MustGroupBy(s, "date", "product", "store")
	g1 := MustGroupBy(s, "date", "type", "country")
	g2 := MustGroupBy(s, "month", "category")
	if !g0.RollsUpTo(g1) || !g1.RollsUpTo(g2) || !g0.RollsUpTo(g2) {
		t.Error("Example 2.5 chain G0 ⪰H G1 ⪰H G2 not recognized")
	}
	if g2.RollsUpTo(g1) {
		t.Error("coarser set claimed to roll up to finer set")
	}
	if !g0.RollsUpTo(g0) {
		t.Error("⪰H must be reflexive")
	}
}

func TestCoordinateRollup(t *testing.T) {
	s := testSchema(t)
	g1 := MustGroupBy(s, "date", "type", "country")
	g2 := MustGroupBy(s, "month", "category")
	date, _ := s.Hiers[0].Dict(0).Lookup("1997-04-15")
	typ, _ := s.Hiers[1].Dict(1).Lookup("Fresh Fruit")
	country, _ := s.Hiers[2].Dict(2).Lookup("Italy")
	γ1 := Coordinate{date, typ, country}
	γ2 := γ1.Rollup(s, g1, g2)
	if got := γ2.Format(s, g2); got != "⟨1997-04, Fruit⟩" {
		t.Errorf("rollup = %s, want ⟨1997-04, Fruit⟩", got)
	}
}

func TestCoordinateKeyInjective(t *testing.T) {
	// Property: distinct coordinates have distinct keys.
	f := func(a, b int32, c, d int32) bool {
		c1, c2 := Coordinate{a, c}, Coordinate{b, d}
		if a == b && c == d {
			return WideKey(c1, nil) == WideKey(c2, nil)
		}
		return WideKey(c1, nil) != WideKey(c2, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCoordinateKeyOnProjection(t *testing.T) {
	c := Coordinate{7, 9, 11}
	if WideKey(c, []int{0, 2}) != WideKey(Coordinate{7, 11}, nil) {
		t.Error("the key of a projection differs from the key of the projected coordinate")
	}
}

func TestRollupMonotonicProperty(t *testing.T) {
	// Property: for random member paths, rolling up base→top in one step
	// equals rolling up base→mid→top.
	h := NewHierarchy("H", "l0", "l1", "l2")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		l2 := rng.Intn(5)
		l1 := l2*3 + rng.Intn(3)
		h.MustAddMember(
			"base"+string(rune('a'+i%26))+string(rune('0'+i/26)),
			"mid"+string(rune('0'+l1%10))+string(rune('a'+l1/10)),
			"top"+string(rune('0'+l2)))
	}
	n := h.Dict(0).Len()
	for id := int32(0); int(id) < n; id++ {
		direct := h.Rollup(id, 0, 2)
		twoStep := h.Rollup(h.Rollup(id, 0, 1), 1, 2)
		if direct != twoStep {
			t.Fatalf("member %d: rollup not transitive: %d != %d", id, direct, twoStep)
		}
	}
}

func TestGroupByWithout(t *testing.T) {
	s := testSchema(t)
	g := MustGroupBy(s, "product", "country")
	country, _ := s.FindLevel("country")
	got := g.Without(country)
	want := MustGroupBy(s, "product")
	if !got.Equal(want) {
		t.Errorf("Without(country) = %s, want %s", got.String(s), want.String(s))
	}
	if len(g) != 2 {
		t.Error("Without modified the receiver")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if _, ok := s.MeasureIndex("quantity"); !ok {
		t.Error("measure quantity not found")
	}
	if _, ok := s.MeasureIndex("profit"); ok {
		t.Error("missing measure found")
	}
	if _, ok := s.HierIndex("Product"); !ok {
		t.Error("hierarchy Product not found")
	}
	ref, ok := s.FindLevel("country")
	if !ok || s.LevelName(ref) != "country" {
		t.Error("FindLevel(country) failed")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAggOpString(t *testing.T) {
	cases := map[AggOp]string{AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max", AggCount: "count"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}
