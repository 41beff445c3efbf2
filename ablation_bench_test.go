// Ablation benchmarks for the design choices flagged in DESIGN.md §5:
// materialized views, cost-based plan selection, the past window and the
// cursor-transfer boundary. Run with `go test -bench Ablation`.
package assess_test

import (
	"fmt"
	"testing"

	assess "github.com/assess-olap/assess"
	"github.com/assess-olap/assess/internal/experiments"
	"github.com/assess-olap/assess/internal/plan"
)

const ablationSibling = 2 // index of the Sibling intention

// ablationEnv builds an SSB session, optionally without materialized
// views.
func ablationEnv(b *testing.B, materialize bool) *experiments.Env {
	b.Helper()
	sc := benchScale()
	env, err := experiments.Setup(sc, 42)
	if err != nil {
		b.Fatal(err)
	}
	if !materialize {
		// Rebuild without views.
		ds := assess.GenerateSSB(sc.SF, 42)
		s := assess.NewSession()
		if err := s.RegisterCube("LINEORDER", ds.Fact); err != nil {
			b.Fatal(err)
		}
		if err := s.RegisterCube("LINEORDER_BUDGET", ds.Budget); err != nil {
			b.Fatal(err)
		}
		env.Session = s
	}
	return env
}

// BenchmarkAblationMaterializedViews compares every feasible plan of the
// Sibling intention with and without materialized views: the views turn
// full fact scans into view filters, which is what makes the plans'
// transfer/join differences visible (EXPERIMENTS.md).
func BenchmarkAblationMaterializedViews(b *testing.B) {
	in := experiments.Intentions()[ablationSibling]
	if in.Name != "Sibling" {
		b.Fatal("intention order changed")
	}
	for _, materialized := range []bool{true, false} {
		name := "views-off"
		if materialized {
			name = "views-on"
		}
		env := ablationEnv(b, materialized)
		for _, strat := range []plan.Strategy{plan.NP, plan.POP} {
			b.Run(name+"/"+strat.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Session.ExecWith(in.Statement, strat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationCostModel measures the planning overhead of
// cost-based selection against the fixed heuristic.
func BenchmarkAblationCostModel(b *testing.B) {
	env := ablationEnv(b, true)
	in := experiments.Intentions()[ablationSibling]
	b.Run("heuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Session.Prepare(in.Statement); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cost-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := env.Session.PrepareCostBased(in.Statement)
			if err != nil {
				b.Fatal(err)
			}
			if p.Strategy != plan.POP {
				b.Fatalf("cost-based choice = %v, want POP", p.Strategy)
			}
		}
	})
}

// BenchmarkAblationPastWindow sweeps the past-benchmark window k: NP and
// JOP transfer and pivot k slices per cell, while POP pivots engine-side
// and transfers one row per target cell, growing only in its column
// count.
func BenchmarkAblationPastWindow(b *testing.B) {
	env := ablationEnv(b, true)
	for _, k := range []int{2, 4, 8, 16} {
		stmt := fmt.Sprintf(`with LINEORDER for month = '1998-06' by month, supplier
			assess revenue against past %d
			using ratio(revenue, benchmark.revenue)
			labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`, k)
		for _, strat := range plan.Strategies() {
			b.Run(fmt.Sprintf("k=%d/%v", k, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Session.ExecWith(stmt, strat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
