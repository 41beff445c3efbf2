package assess_test

import (
	"testing"

	assess "github.com/assess-olap/assess"
)

// TestPlansAgreeWithMaterializedViews re-checks plan equivalence when
// the engine answers gets (and the aggregates under POP pivots) from materialized
// views, the configuration of the paper's experiments.
func TestPlansAgreeWithMaterializedViews(t *testing.T) {
	build := func(materialize bool) *assess.Session {
		s, _, err := assess.NewSalesSession(30_000, 99)
		if err != nil {
			t.Fatal(err)
		}
		if materialize {
			for _, levels := range [][]string{
				{"product", "country"},
				{"month", "store"},
			} {
				if err := s.Materialize("SALES", levels...); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	statements := []string{
		`with SALES for type = 'Fresh Fruit', country = 'Italy'
			by product, country
			assess quantity against country = 'France'
			using percOfTotal(difference(quantity, benchmark.quantity))
			labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}`,
		`with SALES for month = '1997-07' by month, store
			assess storeSales against past 4
			using ratio(storeSales, benchmark.storeSales)
			labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`,
		`with SALES for country = 'Italy' by product, country
			assess* quantity against country = 'Greece'
			using difference(quantity, benchmark.quantity)
			labels {[-inf, 0): down, [0, inf]: up}`,
	}
	withViews := build(true)
	scanOnly := build(false)
	for _, stmt := range statements {
		for _, strat := range []assess.Strategy{assess.NP, assess.JOP, assess.POP} {
			a, err := withViews.ExecWith(stmt, strat)
			if err != nil {
				t.Fatalf("%v with views: %v", strat, err)
			}
			b, err := scanOnly.ExecWith(stmt, strat)
			if err != nil {
				t.Fatalf("%v scan-only: %v", strat, err)
			}
			assertSameResult(t, a, b)
		}
	}
}
