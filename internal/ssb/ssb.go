// Package ssb is a deterministic, dbgen-like generator for the Star
// Schema Benchmark cube used in the paper's evaluation (Section 6): a
// LINEORDER fact table described by four linear hierarchies,
//
//	date ⪰ month ⪰ year                    (7 years, 1992–1998)
//	customer ⪰ ccity ⪰ cnation ⪰ cregion   (30,000·SF customers)
//	supplier ⪰ scity ⪰ snation ⪰ sregion   (2,000·SF suppliers)
//	part ⪰ brand ⪰ category ⪰ mfgr         (20,000·SF parts, 1000 brands)
//
// with the sum measures quantity, revenue, and supplycost. The fact table
// holds 6,000,000·SF rows; cardinality ratios follow the SSB
// specification so that target-cube cardinalities scale linearly with the
// scale factor, as in Table 2 of the paper. A reconciled external
// benchmark cube LINEORDER_BUDGET (measure expectedRevenue) is generated
// alongside over the same hierarchies.
package ssb

import (
	"fmt"
	"math/rand"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Dataset bundles the SSB schema and fact tables.
type Dataset struct {
	Schema *mdm.Schema
	Fact   *storage.FactTable
	// Budget is the reconciled external-benchmark cube (expectedRevenue),
	// with its own schema over the same hierarchies.
	Budget       *storage.FactTable
	BudgetSchema *mdm.Schema
	SF           float64
}

// Regions are the five SSB regions.
var Regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// Rows returns the fact cardinality for a scale factor.
func Rows(sf float64) int { return int(6_000_000 * sf) }

func customers(sf float64) int { return clampMin(int(30_000*sf), 100) }
func suppliers(sf float64) int { return clampMin(int(2_000*sf), 40) }
func parts(sf float64) int     { return clampMin(int(20_000*sf), 500) }

func clampMin(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// geography builds a customer- or supplier-style hierarchy with the SSB
// cardinalities: 25 nations (5 per region) and 10 cities per nation.
func geography(name, base, prefix string, n int, rng *rand.Rand) *mdm.Hierarchy {
	h := mdm.NewHierarchy(name, base, prefix+"city", prefix+"nation", prefix+"region")
	for i := 0; i < n; i++ {
		nation := rng.Intn(25)
		region := Regions[nation/5]
		nationName := fmt.Sprintf("%sNATION-%02d", prefix, nation)
		city := fmt.Sprintf("%sCITY-%02d-%d", prefix, nation, rng.Intn(10))
		h.MustAddMember(fmt.Sprintf("%s#%09d", name, i+1), city, nationName, region)
	}
	return h
}

// Generator produces the SSB row stream a block (or a row) at a time, so
// callers can spill rows to disk without ever materializing the fact
// table in memory (ssbgen -out-dir). Constructing the generator builds
// the hierarchies, schemas, and per-part price table; NextBlock and Next
// then yield exactly Rows() fact rows between them. The (sf, seed) → row
// mapping is identical to Generate's, which is implemented on top of it.
type Generator struct {
	Schema       *mdm.Schema
	BudgetSchema *mdm.Schema
	SF           float64

	rng                          *rand.Rand
	price                        []float64
	nDates, nCust, nSupp, nParts int
	rows, emitted                int
	keys                         []int32
	meas                         [3]float64
	// NextBlock's reusable columns: the four keys, then the three
	// LINEORDER measures and the budget measure.
	blockKeys [4][]int32
	blockMeas [4][]float64
}

// NewGenerator builds the dimension data for a deterministic SSB stream.
func NewGenerator(sf float64, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))

	hDate := mdm.NewHierarchy("Date", "date", "month", "year")
	for year := 1992; year <= 1998; year++ {
		for m := 1; m <= 12; m++ {
			month := fmt.Sprintf("%d-%02d", year, m)
			for d := 1; d <= 28; d++ {
				hDate.MustAddMember(fmt.Sprintf("%s-%02d", month, d), month, fmt.Sprintf("%d", year))
			}
		}
	}
	hCustomer := geography("Customer", "customer", "c", customers(sf), rng)
	hSupplier := geography("Supplier", "supplier", "s", suppliers(sf), rng)

	hPart := mdm.NewHierarchy("Part", "part", "brand", "category", "mfgr")
	nParts := parts(sf)
	for i := 0; i < nParts; i++ {
		brand := rng.Intn(1000)
		category := brand / 40
		mfgr := category / 5
		hPart.MustAddMember(
			fmt.Sprintf("Part#%09d", i+1),
			fmt.Sprintf("MFGR#%d%d%02d", mfgr+1, category%5+1, brand%40+1),
			fmt.Sprintf("MFGR#%d%d", mfgr+1, category%5+1),
			fmt.Sprintf("MFGR#%d", mfgr+1))
	}

	hiers := []*mdm.Hierarchy{hDate, hCustomer, hSupplier, hPart}
	schema := mdm.NewSchema("LINEORDER", hiers, []mdm.Measure{
		{Name: "quantity", Op: mdm.AggSum},
		{Name: "revenue", Op: mdm.AggSum},
		{Name: "supplycost", Op: mdm.AggSum},
	})
	budgetSchema := mdm.NewSchema("LINEORDER_BUDGET", hiers, []mdm.Measure{
		{Name: "expectedRevenue", Op: mdm.AggSum},
	})

	// Per-part base price, stable across the dataset.
	price := make([]float64, nParts)
	for i := range price {
		price[i] = 900 + 1200*rng.Float64()
	}

	return &Generator{
		Schema: schema, BudgetSchema: budgetSchema, SF: sf,
		rng: rng, price: price,
		nDates: hDate.Dict(0).Len(), nCust: hCustomer.Dict(0).Len(),
		nSupp: hSupplier.Dict(0).Len(), nParts: nParts,
		rows: Rows(sf), keys: make([]int32, 4),
	}
}

// Rows is the total number of fact rows the generator yields.
func (g *Generator) Rows() int { return g.rows }

// draw draws the next row from the stream: every row takes the same
// draws in the same order, so Next and NextBlock yield the same rows.
func (g *Generator) draw() (date, cust, supp, part int32, qty, revenue, cost, budget float64) {
	rng := g.rng
	date = int32(rng.Intn(g.nDates))
	cust = int32(rng.Intn(g.nCust))
	supp = int32(rng.Intn(g.nSupp))
	part = int32(rng.Intn(g.nParts))
	qty = float64(1 + rng.Intn(50))
	discount := float64(rng.Intn(11)) / 100
	revenue = qty * g.price[part] * (1 - discount)
	cost = revenue * (0.55 + 0.15*rng.Float64())
	return date, cust, supp, part, qty, revenue, cost, revenue * (0.85 + 0.3*rng.Float64())
}

// Next yields the next fact row: the four dimension keys, the LINEORDER
// measures (quantity, revenue, supplycost), and the LINEORDER_BUDGET
// measure. The returned slices are reused by the following call; copy
// them if they must outlive it. Next panics past Rows() calls.
func (g *Generator) Next() (keys []int32, meas []float64, budget float64) {
	if g.emitted >= g.rows {
		panic("ssb: Generator.Next called past Rows()")
	}
	g.emitted++
	g.keys[0], g.keys[1], g.keys[2], g.keys[3], g.meas[0], g.meas[1], g.meas[2], budget = g.draw()
	return g.keys, g.meas[:], budget
}

// BlockRows is the most rows one NextBlock call yields.
const BlockRows = 1 << 16

// NextBlock yields the next min(n, BlockRows) rows of the stream, fewer at
// its end: the rows Next would yield, in the same order. fact holds
// LINEORDER's columns and budget LINEORDER_BUDGET's; the two share their
// key columns. Both live in a buffer the generator reuses, so they are
// valid until its next NextBlock call. Past the last row the block is
// empty.
func (g *Generator) NextBlock(n int) (fact, budget storage.BlockCols) {
	n = max(0, min(n, BlockRows, g.rows-g.emitted))
	if cap(g.blockKeys[0]) < n {
		for h := range g.blockKeys {
			g.blockKeys[h] = make([]int32, n)
		}
		for m := range g.blockMeas {
			g.blockMeas[m] = make([]float64, n)
		}
	}
	k, m := &g.blockKeys, &g.blockMeas
	for h := range k {
		k[h] = k[h][:n]
	}
	for i := range m {
		m[i] = m[i][:n]
	}
	for r := 0; r < n; r++ {
		k[0][r], k[1][r], k[2][r], k[3][r], m[0][r], m[1][r], m[2][r], m[3][r] = g.draw()
	}
	g.emitted += n
	fact = storage.BlockCols{Keys: k[:], Meas: m[:3], Rows: n}
	budget = storage.BlockCols{Keys: k[:], Meas: m[3:], Rows: n}
	return fact, budget
}

// Materialize drains a fresh generator into in-memory fact tables, one
// block at a time.
func (g *Generator) Materialize() *Dataset {
	if g.emitted != 0 {
		panic("ssb: Materialize on a partially consumed Generator")
	}
	fact := storage.NewFactTable(g.Schema)
	fact.Reserve(g.Rows())
	budget := storage.NewFactTable(g.BudgetSchema)
	budget.Reserve(g.Rows())
	for {
		fb, bb := g.NextBlock(BlockRows)
		if fb.Rows == 0 {
			break
		}
		if err := fact.AppendBlock(fb); err != nil {
			panic(err)
		}
		if err := budget.AppendBlock(bb); err != nil {
			panic(err)
		}
	}
	return &Dataset{
		Schema: g.Schema, Fact: fact,
		Budget: budget, BudgetSchema: g.BudgetSchema,
		SF: g.SF,
	}
}

// Generate builds a deterministic SSB dataset at the given scale factor.
// The same (sf, seed) pair always yields the same data.
func Generate(sf float64, seed int64) *Dataset {
	return NewGenerator(sf, seed).Materialize()
}
