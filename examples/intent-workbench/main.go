// Intent workbench: the future-work extensions of the paper's Section 8,
// all implemented here — ancestor benchmarks (milk against its
// category), descriptive level properties (per-capita sales), statement
// completion with interest ranking, coordinate-dependent labeling
// (quartiles within each country) — followed by the plan the paper's
// rule (POP, else JOP, else NP) picks for a sibling statement.
package main

import (
	"fmt"
	"log"

	assess "github.com/assess-olap/assess"
)

func main() {
	session, ds, err := assess.NewSalesSession(60_000, 12)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Materialize("SALES", "product", "country"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SALES cube: %d fact rows (view on ⟨product, country⟩ materialized)\n\n", ds.Fact.Rows())

	// 1. Ancestor benchmark: how much of its category does each dairy
	// product carry?
	fmt.Println("── ancestor benchmark: each dairy product vs its category total ──")
	res := session.MustExec(`
		with SALES
		for category = 'Dairy'
		by product
		assess quantity against ancestor category
		using ratio(quantity, benchmark.quantity)
		labels {[0, 0.1): minor, [0.1, 0.3]: solid, (0.3, 1]: flagship}`)
	printRows(res, 8)

	// 2. Level properties: per-capita sales via country.population.
	fmt.Println("\n── level property: per-capita quantities by country ──")
	res = session.MustExec(`
		with SALES by country
		assess quantity
		using ratio(quantity, country.population)
		labels quartiles`)
	printRows(res, 5)

	// 3. Coordinate-dependent labeling: rank products within each country
	// rather than globally.
	fmt.Println("\n── within-labeling: product quartiles inside each country ──")
	res = session.MustExec(`
		with SALES by product, country
		assess storeSales labels quartiles within country`)
	printRows(res, 6)

	// 4. Statement completion: give the system a partial intention and
	// let it propose ranked, executable assessments.
	fmt.Println("\n── statement completion for a partial intention ──")
	sugs, err := session.Suggest(`
		with SALES
		for country = 'Italy'
		by product, country
		assess quantity`, 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, sg := range sugs {
		fmt.Printf("%d. interest %.3f (%d cells): %s\n", i+1, sg.Score, sg.Cells, sg.Note)
	}

	// 5. Plan selection: the paper's rule (POP when applicable, else
	// JOP, else NP) picks the strategy from the benchmark kind alone.
	fmt.Println("\n── plan selection ──")
	stmt := `with SALES for country = 'Italy' by product, country
		assess quantity against country = 'France'
		using difference(quantity, benchmark.quantity)
		labels {[-inf, 0): down, [0, inf]: up}`
	kind, err := session.BenchmarkKind(stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v benchmark: feasible %v, best %v\n",
		kind, assess.FeasibleStrategies(kind), assess.BestStrategy(kind))
	p, err := session.Prepare(stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p.Explain())
}

func printRows(res *assess.Result, n int) {
	rows, err := res.Rows()
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rows {
		if i >= n {
			fmt.Printf("… (%d more cells)\n", len(rows)-n)
			break
		}
		fmt.Printf("%-36v comparison=%-10.3f label=%s\n", r.Coordinate, r.Comparison, r.Label)
	}
}
