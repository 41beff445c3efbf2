// Package sales builds the SALES working-example cube of the paper
// (Example 2.2): a FoodMart-like star schema with hierarchies
//
//	date ⪰ month ⪰ year
//	customer ⪰ gender
//	product ⪰ type ⪰ category
//	store ⪰ city ⪰ country
//
// and the sum measures quantity, storeSales, and storeCost. It provides a
// deterministic synthetic generator for examples and tests, plus the tiny
// hand-crafted fact table whose aggregates reproduce exactly the Figure 1
// / Figure 2 numbers of the paper.
package sales

import (
	"fmt"
	"math/rand"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Dataset bundles the SALES schema with a populated fact table.
type Dataset struct {
	Schema *mdm.Schema
	Fact   *storage.FactTable
	// External is a reconciled external-benchmark cube over the same
	// hierarchies carrying the single measure expectedSales: the
	// "golden standard" of Section 3.1.
	External *storage.FactTable
	// ExternalSchema is the schema of External.
	ExternalSchema *mdm.Schema
}

type productSpec struct{ name, typ, cat string }

var products = []productSpec{
	{"Apple", "Fresh Fruit", "Fruit"},
	{"Pear", "Fresh Fruit", "Fruit"},
	{"Lemon", "Fresh Fruit", "Fruit"},
	{"Banana", "Fresh Fruit", "Fruit"},
	{"Peach", "Fresh Fruit", "Fruit"},
	{"Canned Peach", "Canned Fruit", "Fruit"},
	{"Fruit Mix", "Canned Fruit", "Fruit"},
	{"milk", "Milk Products", "Dairy"},
	{"yogurt", "Milk Products", "Dairy"},
	{"butter", "Milk Products", "Dairy"},
	{"ice-cream", "Milk Products", "Dairy"},
	{"gouda", "Cheese", "Dairy"},
	{"brie", "Cheese", "Dairy"},
	{"orange juice", "Juice", "Drink"},
	{"apple juice", "Juice", "Drink"},
	{"cola", "Soda", "Drink"},
	{"lemonade", "Soda", "Drink"},
	{"crackers", "Salty Snacks", "Snacks"},
	{"chips", "Salty Snacks", "Snacks"},
	{"chocolate", "Sweet Snacks", "Snacks"},
}

type storeSpec struct{ name, city, country string }

var stores = []storeSpec{
	{"SmartMart", "Bologna", "Italy"},
	{"CoopCity", "Bologna", "Italy"},
	{"MercatoBlu", "Milano", "Italy"},
	{"SuperRoma", "Roma", "Italy"},
	{"HyperParis", "Paris", "France"},
	{"MarchePlus", "Paris", "France"},
	{"ToursMarket", "Tours", "France"},
	{"IberiaShop", "Madrid", "Spain"},
	{"SolMart", "Sevilla", "Spain"},
	{"AthensAgora", "Athens", "Greece"},
	{"IoanninaMart", "Ioannina", "Greece"},
	{"BerlinKauf", "Berlin", "Germany"},
}

// Schema builds the SALES cube schema with all dimension members
// registered but no facts.
func Schema() *mdm.Schema {
	hDate := mdm.NewHierarchy("Date", "date", "month", "year")
	for _, year := range []string{"1996", "1997"} {
		for m := 1; m <= 12; m++ {
			month := fmt.Sprintf("%s-%02d", year, m)
			for d := 1; d <= 28; d++ {
				hDate.MustAddMember(fmt.Sprintf("%s-%02d", month, d), month, year)
			}
		}
	}
	hCustomer := mdm.NewHierarchy("Customer", "customer", "gender")
	for i := 0; i < 50; i++ {
		gender := "M"
		if i%2 == 1 {
			gender = "F"
		}
		hCustomer.MustAddMember(fmt.Sprintf("Customer %02d", i), gender)
	}
	hProduct := mdm.NewHierarchy("Product", "product", "type", "category")
	for _, p := range products {
		hProduct.MustAddMember(p.name, p.typ, p.cat)
	}
	hStore := mdm.NewHierarchy("Store", "store", "city", "country")
	for _, st := range stores {
		hStore.MustAddMember(st.name, st.city, st.country)
	}
	// Descriptive property for per-capita comparisons (future work,
	// Section 8): country populations in millions.
	if err := hStore.AddProperty("country", "population"); err != nil {
		panic(err)
	}
	for country, pop := range map[string]float64{
		"Italy": 59.0, "France": 68.0, "Spain": 48.0, "Greece": 10.4, "Germany": 83.2,
	} {
		if err := hStore.SetProperty("country", country, "population", pop); err != nil {
			panic(err)
		}
	}
	return mdm.NewSchema("SALES",
		[]*mdm.Hierarchy{hDate, hCustomer, hProduct, hStore},
		[]mdm.Measure{
			{Name: "quantity", Op: mdm.AggSum},
			{Name: "storeSales", Op: mdm.AggSum},
			{Name: "storeCost", Op: mdm.AggSum},
		})
}

// blockRows is the most rows Generate draws before appending them.
const blockRows = 1 << 16

// Generate builds a deterministic SALES dataset with approximately rows
// fact rows (rows must be positive). The same seed always yields the same
// data. It also synthesizes the reconciled external-benchmark cube
// SALES_TARGET whose expectedSales measure is the actual storeSales
// perturbed by ±20%.
func Generate(rows int, seed int64) *Dataset {
	s := Schema()
	f := storage.NewFactTable(s)
	f.Reserve(rows)
	rng := rand.New(rand.NewSource(seed))

	nDates := s.Hiers[0].Dict(0).Len()
	nCustomers := s.Hiers[1].Dict(0).Len()
	nProducts := s.Hiers[2].Dict(0).Len()
	nStores := s.Hiers[3].Dict(0).Len()

	// Per-product base price, stable across the dataset.
	price := make([]float64, nProducts)
	for i := range price {
		price[i] = 1 + 9*rng.Float64()
	}

	exSchema := mdm.NewSchema("SALES_TARGET", s.Hiers,
		[]mdm.Measure{{Name: "expectedSales", Op: mdm.AggSum}})
	ex := storage.NewFactTable(exSchema)
	ex.Reserve(rows)

	// Rows are drawn into a reused block and appended a block at a time:
	// the four key columns, then quantity, storeSales, storeCost and
	// SALES_TARGET's expectedSales.
	var keys [4][]int32
	var meas [4][]float64
	for i := range keys {
		keys[i] = make([]int32, min(max(rows, 0), blockRows))
		meas[i] = make([]float64, len(keys[i]))
	}
	for lo := 0; lo < rows; lo += blockRows {
		n := min(blockRows, rows-lo)
		for r := 0; r < n; r++ {
			keys[0][r] = int32(rng.Intn(nDates))
			keys[1][r] = int32(rng.Intn(nCustomers))
			keys[2][r] = int32(rng.Intn(nProducts))
			keys[3][r] = int32(rng.Intn(nStores))
			qty := float64(1 + rng.Intn(20))
			salesAmt := qty * price[keys[2][r]] * (0.9 + 0.2*rng.Float64())
			cost := salesAmt * (0.6 + 0.2*rng.Float64())
			meas[0][r], meas[1][r], meas[2][r], meas[3][r] = qty, salesAmt, cost, salesAmt*(0.8+0.4*rng.Float64())
		}
		for i := range keys { // only the last block is short
			keys[i], meas[i] = keys[i][:n], meas[i][:n]
		}
		if err := f.AppendBlock(storage.BlockCols{Keys: keys[:], Meas: meas[:3], Rows: n}); err != nil {
			panic(err)
		}
		if err := ex.AppendBlock(storage.BlockCols{Keys: keys[:], Meas: meas[3:], Rows: n}); err != nil {
			panic(err)
		}
	}
	return &Dataset{Schema: s, Fact: f, External: ex, ExternalSchema: exSchema}
}

// FigureOne builds the miniature dataset behind Figures 1 and 2 of the
// paper: fresh-fruit quantities by product for Italy and France summing to
//
//	Italy:  Apple 100, Pear 90, Lemon 30
//	France: Apple 150, Pear 110, Lemon 20
//
// Quantities are split across two fact rows per (product, country) pair so
// that aggregation is actually exercised.
func FigureOne() *Dataset {
	s := Schema()
	f := storage.NewFactTable(s)
	type row struct {
		product, store string
		qty            float64
	}
	rows := []row{
		{"Apple", "SmartMart", 60}, {"Apple", "MercatoBlu", 40},
		{"Pear", "SmartMart", 50}, {"Pear", "SuperRoma", 40},
		{"Lemon", "CoopCity", 20}, {"Lemon", "MercatoBlu", 10},
		{"Apple", "HyperParis", 80}, {"Apple", "ToursMarket", 70},
		{"Pear", "HyperParis", 60}, {"Pear", "MarchePlus", 50},
		{"Lemon", "ToursMarket", 15}, {"Lemon", "MarchePlus", 5},
	}
	date, _ := s.Hiers[0].Dict(0).Lookup("1997-04-15")
	cust, _ := s.Hiers[1].Dict(0).Lookup("Customer 00")
	for _, r := range rows {
		prod, ok := s.Hiers[2].Dict(0).Lookup(r.product)
		if !ok {
			panic("sales: unknown product " + r.product)
		}
		store, ok := s.Hiers[3].Dict(0).Lookup(r.store)
		if !ok {
			panic("sales: unknown store " + r.store)
		}
		f.MustAppend([]int32{date, cust, prod, store}, []float64{r.qty, 3 * r.qty, 2 * r.qty})
	}
	return &Dataset{Schema: s, Fact: f}
}
