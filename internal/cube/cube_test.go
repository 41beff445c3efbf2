package cube

import (
	"math"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
)

// fixture builds a product×country schema and the Figure 1 target (C) and
// benchmark (B) cubes of the paper.
func fixture(t *testing.T) (*mdm.Schema, mdm.GroupBy, *Cube, *Cube) {
	t.Helper()
	hp := mdm.NewHierarchy("Product", "product", "type")
	hp.MustAddMember("Apple", "Fresh Fruit")
	hp.MustAddMember("Pear", "Fresh Fruit")
	hp.MustAddMember("Lemon", "Fresh Fruit")
	hp.MustAddMember("Banana", "Fresh Fruit")
	hc := mdm.NewHierarchy("Store", "country")
	hc.MustAddMember("Italy")
	hc.MustAddMember("France")
	s := mdm.NewSchema("SALES", []*mdm.Hierarchy{hp, hc},
		[]mdm.Measure{{Name: "quantity", Op: mdm.AggSum}})
	g := mdm.MustGroupBy(s, "product", "country")

	member := func(h int, lvl int, name string) int32 {
		id, ok := s.Hiers[h].Dict(lvl).Lookup(name)
		if !ok {
			t.Fatalf("member %s missing", name)
		}
		return id
	}
	coord := func(prod, country string) mdm.Coordinate {
		return mdm.Coordinate{member(0, 0, prod), member(1, 0, country)}
	}
	c := New(s, g, "quantity")
	c.MustAddCell(coord("Apple", "Italy"), 100)
	c.MustAddCell(coord("Pear", "Italy"), 90)
	c.MustAddCell(coord("Lemon", "Italy"), 30)
	b := New(s, g, "quantity")
	b.MustAddCell(coord("Apple", "France"), 150)
	b.MustAddCell(coord("Pear", "France"), 110)
	b.MustAddCell(coord("Lemon", "France"), 20)
	return s, g, c, b
}

func TestAddCellDuplicate(t *testing.T) {
	_, _, c, _ := fixture(t)
	if err := c.AddCell(c.Coord(0), []float64{1}); err == nil {
		t.Fatal("duplicate coordinate accepted")
	}
	if err := c.AddCell(mdm.Coordinate{3, 0}, []float64{1, 2}); err == nil {
		t.Fatal("wrong measure arity accepted")
	}
}

// TestAddCellRejectsForeignMember: a member id outside its level's
// dictionary is refused with the level's name, and the cube still
// renders.
func TestAddCellRejectsForeignMember(t *testing.T) {
	_, _, c, _ := fixture(t)
	for _, tc := range []struct {
		coord mdm.Coordinate
		level string
	}{{mdm.Coordinate{4, 0}, "product"}, {mdm.Coordinate{0, -1}, "country"}, {mdm.Coordinate{0, 2}, "country"}} {
		err := c.AddCell(tc.coord, []float64{1})
		if err == nil || !strings.Contains(err.Error(), tc.level) {
			t.Fatalf("AddCell(%v) = %v, want an error naming level %s", tc.coord, err, tc.level)
		}
	}
	if c.Len() != 3 || !strings.Contains(c.String(), "Lemon") {
		t.Fatalf("cube changed or does not render after refused cells:\n%s", c)
	}
	// A bulk-built cube is trusted until it is indexed, which names the
	// level too.
	bulk, err := Build(c.Schema, c.Group, []string{"q"}, 2, [][]int32{{0, 9}, {0, 0}}, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BuildIndex(); err == nil || !strings.Contains(err.Error(), "product") {
		t.Fatalf("BuildIndex = %v, want an error naming level product", err)
	}
	if _, err := PartialJoin(c, bulk, c.Group, "b.", false); err == nil || !strings.Contains(err.Error(), "product") {
		t.Fatalf("PartialJoin = %v, want an error naming level product", err)
	}
}

// TestAddCellAfterDictionaryGrowth indexes a cube, adds a member to a
// dictionary and then a cell holding it: the cube is indexed again over
// the grown space, and Lookup finds the new cell and the old ones, in a
// space of 64 bits and in one past it.
func TestAddCellAfterDictionaryGrowth(t *testing.T) {
	s, _, c, _ := fixture(t)
	ws, wg := wideSchema()
	wide := New(ws, wg, "m")
	wide.MustAddCell(mdm.Coordinate{1, 2, 3, 4, 5, 6, 7}, 1)
	wide.MustAddCell(mdm.Coordinate{7, 6, 5, 4, 3, 2, 1}, 2)
	for _, tc := range []struct {
		c      *Cube
		hier   *mdm.Hierarchy
		member []string
	}{{c, s.Hiers[0], []string{"Kiwi", "Fresh Fruit"}}, {wide, ws.Hiers[0], []string{"Kiwi"}}} {
		if err := tc.c.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		old := tc.c.Coord(1)
		coord := tc.c.Coord(0)
		coord[0] = tc.hier.MustAddMember(tc.member...)
		if at, ok := tc.c.Lookup(coord); ok {
			t.Fatalf("found %v at %d before it was added", coord, at)
		}
		if err := tc.c.AddCell(coord, []float64{5}); err != nil {
			t.Fatal(err)
		}
		n := tc.c.Len()
		if at, ok := tc.c.Lookup(coord); !ok || at != n-1 {
			t.Fatalf("Lookup of the new cell %v = %d, %v; want %d", coord, at, ok, n-1)
		}
		if at, ok := tc.c.Lookup(old); !ok || at != 1 {
			t.Fatalf("Lookup of the old cell %v = %d, %v; want 1", old, at, ok)
		}
		if err := tc.c.AddCell(coord, []float64{6}); err == nil {
			t.Fatal("AddCell accepted the new coordinate twice")
		}
	}
}

func TestPartialJoinFigureOne(t *testing.T) {
	s, _, c, b := fixture(t)
	product, _ := s.FindLevel("product")
	d, err := PartialJoin(c, b, []mdm.LevelRef{product}, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("|D| = %d, want 3", d.Len())
	}
	qj, ok := d.MeasureIndex("benchmark.quantity")
	if !ok {
		t.Fatal("benchmark.quantity column missing")
	}
	// Paper Figure 1: ⟨Apple, Italy⟩ maps onto ⟨Apple, France⟩ = 150.
	for i := range d.Len() {
		coord := d.Coord(i)
		prod := s.Dict(d.Group[0]).Name(coord[0])
		country := s.Dict(d.Group[1]).Name(coord[1])
		if country != "Italy" {
			t.Errorf("joined cell kept benchmark coordinate %s", country)
		}
		want := map[string]float64{"Apple": 150, "Pear": 110, "Lemon": 20}[prod]
		if got := d.Cols[qj][i]; got != want {
			t.Errorf("%s: benchmark.quantity = %g, want %g", prod, got, want)
		}
	}
}

func TestNaturalJoinRequiresSameGroupBy(t *testing.T) {
	s, _, c, _ := fixture(t)
	g2 := mdm.MustGroupBy(s, "product")
	other := New(s, g2, "quantity")
	if _, err := Join(c, other, "b.", false); err == nil {
		t.Fatal("join of non-joinable cubes accepted (Definition 3.1)")
	}
}

func TestNaturalJoinMatchesOnFullCoordinate(t *testing.T) {
	s, g, c, _ := fixture(t)
	// A benchmark with identical coordinates (external-benchmark shape).
	b2 := New(s, g, "expected")
	for i := range c.Len() {
		coord := c.Coord(i)
		b2.MustAddCell(coord.Clone(), c.Cols[0][i]*2)
	}
	j, err := Join(c, b2, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("|J| = %d, want 3", j.Len())
	}
	ej, _ := j.MeasureIndex("benchmark.expected")
	for i := range j.Len() {
		if j.Cols[ej][i] != 2*j.Cols[0][i] {
			t.Errorf("cell %d: expected %g, got %g", i, 2*j.Cols[0][i], j.Cols[ej][i])
		}
	}
}

func TestLeftOuterJoinKeepsUnmatched(t *testing.T) {
	s, _, c, b := fixture(t)
	// Remove Lemon from the benchmark by rebuilding it.
	b2 := New(s, b.Group, "quantity")
	for i := range b.Len() {
		coord := b.Coord(i)
		if s.Dict(b.Group[0]).Name(coord[0]) == "Lemon" {
			continue
		}
		b2.MustAddCell(coord.Clone(), b.Cols[0][i])
	}
	product, _ := s.FindLevel("product")
	inner, err := PartialJoin(c, b2, []mdm.LevelRef{product}, "benchmark.", false)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 2 {
		t.Fatalf("inner |D| = %d, want 2", inner.Len())
	}
	outer, err := PartialJoin(c, b2, []mdm.LevelRef{product}, "benchmark.", true)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Len() != 3 {
		t.Fatalf("outer |D| = %d, want 3 (assess* keeps all target cells)", outer.Len())
	}
	qj, _ := outer.MeasureIndex("benchmark.quantity")
	var sawNaN bool
	for i := range outer.Len() {
		if math.IsNaN(outer.Cols[qj][i]) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Error("unmatched cell has no NaN benchmark value")
	}
}

func TestPartialJoinAmbiguous(t *testing.T) {
	s, g, c, b := fixture(t)
	// Add a second France-side slice member so two cells share the product key.
	b2 := New(s, g, "quantity")
	for i := range b.Len() {
		coord := b.Coord(i)
		b2.MustAddCell(coord.Clone(), b.Cols[0][i])
	}
	italy, _ := s.Hiers[1].Dict(0).Lookup("Italy")
	apple, _ := s.Hiers[0].Dict(0).Lookup("Apple")
	b2.MustAddCell(mdm.Coordinate{apple, italy}, 1)
	product, _ := s.FindLevel("product")
	if _, err := PartialJoin(c, b2, []mdm.LevelRef{product}, "b.", false); err == nil {
		t.Fatal("ambiguous partial join accepted")
	}
}

func TestPivotFigureTwo(t *testing.T) {
	s, g, c, b := fixture(t)
	// C' = both slices in one cube (the POP get of Example 4.4).
	cp := New(s, g, "quantity")
	for i := range c.Len() {
		coord := c.Coord(i)
		cp.MustAddCell(coord.Clone(), c.Cols[0][i])
	}
	for i := range b.Len() {
		coord := b.Coord(i)
		cp.MustAddCell(coord.Clone(), b.Cols[0][i])
	}
	country, _ := s.FindLevel("country")
	italy, _ := s.Hiers[1].Dict(0).Lookup("Italy")
	france, _ := s.Hiers[1].Dict(0).Lookup("France")
	d, err := Pivot(cp, country, italy, []int32{france}, true, func(m, member string) string { return "qtyFrance" })
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("|D'| = %d, want 3", d.Len())
	}
	qf, ok := d.MeasureIndex("qtyFrance")
	if !ok {
		t.Fatal("qtyFrance column missing")
	}
	want := map[string]float64{"Apple": 150, "Pear": 110, "Lemon": 20}
	for i := range d.Len() {
		coord := d.Coord(i)
		prod := s.Dict(d.Group[0]).Name(coord[0])
		if got := d.Cols[qf][i]; got != want[prod] {
			t.Errorf("%s: qtyFrance = %g, want %g", prod, got, want[prod])
		}
		if country := s.Dict(d.Group[1]).Name(coord[1]); country != "Italy" {
			t.Errorf("pivot kept non-reference slice %s", country)
		}
	}
}

func TestPivotStrictDropsIncomplete(t *testing.T) {
	s, g, c, b := fixture(t)
	cp := New(s, g, "quantity")
	for i := range c.Len() {
		coord := c.Coord(i)
		cp.MustAddCell(coord.Clone(), c.Cols[0][i])
	}
	for i := range b.Len() {
		coord := b.Coord(i)
		if s.Dict(g[0]).Name(coord[0]) == "Lemon" {
			continue // France has no Lemon cell
		}
		cp.MustAddCell(coord.Clone(), b.Cols[0][i])
	}
	country, _ := s.FindLevel("country")
	italy, _ := s.Hiers[1].Dict(0).Lookup("Italy")
	france, _ := s.Hiers[1].Dict(0).Lookup("France")
	strict, err := Pivot(cp, country, italy, []int32{france}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Len() != 2 {
		t.Fatalf("strict |D| = %d, want 2 (Listing 5 filters nulls)", strict.Len())
	}
	loose, err := Pivot(cp, country, italy, []int32{france}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Len() != 3 {
		t.Fatalf("non-strict |D| = %d, want 3", loose.Len())
	}
}

func TestPivotNeighborOrderChronological(t *testing.T) {
	// Months pivot: the columns follow the neighbors in the order given
	// (chronological, as the regression transform needs), not the order
	// the members were added to the dictionary.
	hd := mdm.NewHierarchy("Date", "month")
	for _, m := range []string{"1997-07", "1997-03", "1997-05", "1997-04", "1997-06"} {
		hd.MustAddMember(m)
	}
	hs := mdm.NewHierarchy("Store", "store")
	hs.MustAddMember("SmartMart")
	s := mdm.NewSchema("SALES", []*mdm.Hierarchy{hd, hs},
		[]mdm.Measure{{Name: "storeSales", Op: mdm.AggSum}})
	g := mdm.MustGroupBy(s, "month", "store")
	c := New(s, g, "storeSales")
	store, _ := hs.Dict(0).Lookup("SmartMart")
	for i, m := range []string{"1997-03", "1997-04", "1997-05", "1997-06", "1997-07"} {
		id, _ := hd.Dict(0).Lookup(m)
		c.MustAddCell(mdm.Coordinate{id, store}, float64(100+10*i))
	}
	month, _ := s.FindLevel("month")
	ref, _ := hd.Dict(0).Lookup("1997-07")
	var past []int32
	for _, m := range []string{"1997-03", "1997-04", "1997-05", "1997-06"} {
		id, _ := hd.Dict(0).Lookup(m)
		past = append(past, id)
	}
	p, err := Pivot(c, month, ref, past, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"storeSales", "storeSales@1997-03", "storeSales@1997-04", "storeSales@1997-05", "storeSales@1997-06"}
	if strings.Join(p.Names, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("pivot columns = %v, want %v", p.Names, wantNames)
	}
	for j, want := range []float64{140, 100, 110, 120, 130} {
		if got := p.Cols[j][0]; got != want {
			t.Errorf("column %s = %g, want %g", p.Names[j], got, want)
		}
	}
}

func TestPivotEmptyReferenceSlice(t *testing.T) {
	s, g, _, b := fixture(t)
	country, _ := s.FindLevel("country")
	italy, _ := s.Hiers[1].Dict(0).Lookup("Italy")
	france, _ := s.Hiers[1].Dict(0).Lookup("France")
	p, err := Pivot(b, country, italy, []int32{france}, true, nil) // b has only France cells
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("pivot of empty reference slice has %d cells", p.Len())
	}
	_ = g
}

func TestAppendMeasureAndLabels(t *testing.T) {
	_, _, c, _ := fixture(t)
	if err := c.AppendMeasure("diff", []float64{1, 2}); err == nil {
		t.Fatal("short column accepted")
	}
	if err := c.AppendMeasure("diff", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendMeasure("diff", []float64{1, 2, 3}); err == nil {
		t.Fatal("duplicate measure name accepted")
	}
	if err := c.SetLabels([]string{"a"}); err == nil {
		t.Fatal("short label column accepted")
	}
	if err := c.SetLabels([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "label") {
		t.Error("String() does not render the label column")
	}
}

// TestSortAfterAddCell: a sorted cube remembers it is in order, so a
// second sort is free, until a cell is added; the cell must then be
// sorted into place, with its labels, and be found by Lookup.
func TestSortAfterAddCell(t *testing.T) {
	s, _, c, _ := fixture(t)
	products := func() string {
		names := make([]string, c.Len())
		for i := range c.Len() {
			names[i] = s.Dict(c.Group[0]).Name(c.Keys[0][i]) + "/" + c.Labels[i]
		}
		return strings.Join(names, ",")
	}
	if err := c.SetLabels([]string{"a", "p", "l"}); err != nil {
		t.Fatal(err)
	}
	c.SortByCoordinate()
	keys := c.Keys[0]
	c.SortByCoordinate()
	if &c.Keys[0][0] != &keys[0] {
		t.Fatal("a second sort of a sorted cube permuted its columns")
	}
	if got, want := products(), "Apple/a,Lemon/l,Pear/p"; got != want {
		t.Fatalf("sorted products = %s, want %s", got, want)
	}

	c.MustAddCell(mdm.Coordinate{3, 0}, 5) // Banana, Italy: belongs second
	c.Labels = append(c.Labels, "b")
	c.SortByCoordinate()
	if got, want := products(), "Apple/a,Banana/b,Lemon/l,Pear/p"; got != want {
		t.Fatalf("products after AddCell and a sort = %s, want %s", got, want)
	}
	if j, ok := c.Lookup(mdm.Coordinate{3, 0}); !ok || j != 1 || c.Cols[0][j] != 5 {
		t.Fatalf("Lookup of the added cell = (%d, %v)", j, ok)
	}
}

func TestSortByCoordinate(t *testing.T) {
	s, _, c, _ := fixture(t)
	c.MustAddCell(mdm.Coordinate{3, 0}, 5) // Banana, Italy
	c.SortByCoordinate()
	names := make([]string, c.Len())
	for i := range c.Len() {
		coord := c.Coord(i)
		names[i] = s.Dict(c.Group[0]).Name(coord[0])
	}
	want := "Apple,Banana,Lemon,Pear"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("sorted products = %s, want %s", got, want)
	}
	// Index must be rebuilt: lookups still work.
	for i := range c.Len() {
		coord := c.Coord(i)
		if j, ok := c.Lookup(coord); !ok || j != i {
			t.Fatalf("index stale after sort at cell %d", i)
		}
	}
}
