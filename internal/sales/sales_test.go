package sales

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

func TestSchemaMatchesExampleTwoTwo(t *testing.T) {
	s := Schema()
	if s.Name != "SALES" {
		t.Errorf("name = %q", s.Name)
	}
	wantHiers := map[string][]string{
		"Date":     {"date", "month", "year"},
		"Customer": {"customer", "gender"},
		"Product":  {"product", "type", "category"},
		"Store":    {"store", "city", "country"},
	}
	for _, h := range s.Hiers {
		want, ok := wantHiers[h.Name()]
		if !ok {
			t.Errorf("unexpected hierarchy %s", h.Name())
			continue
		}
		levels := h.Levels()
		if len(levels) != len(want) {
			t.Errorf("%s levels = %v", h.Name(), levels)
			continue
		}
		for i := range want {
			if levels[i] != want[i] {
				t.Errorf("%s level %d = %s, want %s", h.Name(), i, levels[i], want[i])
			}
		}
	}
	for _, m := range []string{"quantity", "storeSales", "storeCost"} {
		if _, ok := s.MeasureIndex(m); !ok {
			t.Errorf("measure %s missing", m)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schema invalid: %v", err)
	}
	// Fresh Fruit ≥ Fruit, like the paper's part-of example.
	ref, _ := s.FindLevel("type")
	id, ok := s.Dict(ref).Lookup("Fresh Fruit")
	if !ok {
		t.Fatal("Fresh Fruit missing")
	}
	cat := s.Hiers[2].Rollup(id, 1, 2)
	if s.Hiers[2].Dict(2).Name(cat) != "Fruit" {
		t.Errorf("Fresh Fruit rolls up to %q", s.Hiers[2].Dict(2).Name(cat))
	}
}

func TestGenerateDeterministicAndSane(t *testing.T) {
	a := Generate(2000, 1)
	b := Generate(2000, 1)
	if a.Fact.Rows() != 2000 || b.Fact.Rows() != 2000 {
		t.Fatalf("rows = %d, %d", a.Fact.Rows(), b.Fact.Rows())
	}
	for r := 0; r < 2000; r += 113 {
		if a.Fact.Keys[2][r] != b.Fact.Keys[2][r] || a.Fact.Meas[0][r] != b.Fact.Meas[0][r] {
			t.Fatal("generation not deterministic")
		}
	}
	si, _ := a.Schema.MeasureIndex("storeSales")
	ci, _ := a.Schema.MeasureIndex("storeCost")
	for r := 0; r < 2000; r++ {
		if a.Fact.Meas[ci][r] >= a.Fact.Meas[si][r] {
			t.Fatalf("row %d: cost %g >= sales %g", r, a.Fact.Meas[ci][r], a.Fact.Meas[si][r])
		}
	}
	if a.External.Rows() != 2000 {
		t.Errorf("external rows = %d", a.External.Rows())
	}
	if a.ExternalSchema.Hiers[0] != a.Schema.Hiers[0] {
		t.Error("external cube not reconciled with the target hierarchies")
	}
}

func TestFigureOneTotals(t *testing.T) {
	ds := FigureOne()
	s := ds.Schema
	qi, _ := s.MeasureIndex("quantity")
	prodRef, _ := s.FindLevel("product")
	countryRef, _ := s.FindLevel("country")
	totals := map[[2]string]float64{}
	for r := 0; r < ds.Fact.Rows(); r++ {
		prod := s.Dict(prodRef).Name(ds.Fact.Keys[2][r])
		country := s.Dict(countryRef).Name(s.Hiers[3].Rollup(ds.Fact.Keys[3][r], 0, 2))
		totals[[2]string{prod, country}] += ds.Fact.Meas[qi][r]
	}
	want := map[[2]string]float64{
		{"Apple", "Italy"}: 100, {"Pear", "Italy"}: 90, {"Lemon", "Italy"}: 30,
		{"Apple", "France"}: 150, {"Pear", "France"}: 110, {"Lemon", "France"}: 20,
	}
	for k, v := range want {
		if totals[k] != v {
			t.Errorf("%v = %g, want %g", k, totals[k], v)
		}
	}
}

// generateRows is Generate's draw loop one row at a time, kept as the
// reference for its block fill.
func generateRows(rows int, seed int64) (fact, ex *storage.FactTable) {
	s := Schema()
	rng := rand.New(rand.NewSource(seed))
	n := [4]int{}
	for h := range n {
		n[h] = s.Hiers[h].Dict(0).Len()
	}
	price := make([]float64, n[2])
	for i := range price {
		price[i] = 1 + 9*rng.Float64()
	}
	fact = storage.NewFactTable(s)
	ex = storage.NewFactTable(mdm.NewSchema("SALES_TARGET", s.Hiers,
		[]mdm.Measure{{Name: "expectedSales", Op: mdm.AggSum}}))
	keys := make([]int32, 4)
	for r := 0; r < rows; r++ {
		for h := range keys {
			keys[h] = int32(rng.Intn(n[h]))
		}
		qty := float64(1 + rng.Intn(20))
		salesAmt := qty * price[keys[2]] * (0.9 + 0.2*rng.Float64())
		cost := salesAmt * (0.6 + 0.2*rng.Float64())
		fact.MustAppend(keys, []float64{qty, salesAmt, cost})
		ex.MustAppend(keys, []float64{salesAmt * (0.8 + 0.4*rng.Float64())})
	}
	return fact, ex
}

// TestGenerateMatchesRowLoop: the block fill yields the row loop's
// tables bit for bit, Version included, across a block boundary.
func TestGenerateMatchesRowLoop(t *testing.T) {
	for _, rows := range []int{0, 1, blockRows + 1} {
		ds := Generate(rows, 11)
		fact, ex := generateRows(rows, 11)
		for _, p := range [][2]*storage.FactTable{{ds.Fact, fact}, {ds.External, ex}} {
			got, want := p[0], p[1]
			if got.Rows() != want.Rows() || got.Version() != want.Version() {
				t.Fatalf("%d rows: %s has %d rows at version %d, want %d at %d",
					rows, got.Schema.Name, got.Rows(), got.Version(), want.Rows(), want.Version())
			}
			for h := range want.Keys {
				if !slices.Equal(got.Keys[h], want.Keys[h]) {
					t.Fatalf("%d rows: %s key column %d differs", rows, got.Schema.Name, h)
				}
			}
			for m := range want.Meas {
				for r, v := range want.Meas[m] {
					if math.Float64bits(got.Meas[m][r]) != math.Float64bits(v) {
						t.Fatalf("%d rows: %s measure %d row %d: %v, want %v", rows, got.Schema.Name, m, r, got.Meas[m][r], v)
					}
				}
			}
		}
	}
}
