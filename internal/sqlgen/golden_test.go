package sqlgen

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Statements of the other benchmark kinds; sibling uses siblingStmt.
const (
	goldenConstantStmt = `with SALES for country = 'Italy' by month, store
	assess storeSales against 1000
	using ratio(storeSales, 1000)
	labels {[0, 0.9): low, [0.9, 1.1]: fair, (1.1, inf): high}`
	goldenExternalStmt = `with SALES by month assess storeSales
	against SALES_TARGET.expectedSales
	using normDifference(storeSales, benchmark.expectedSales) labels quartiles`
	goldenPastStmt = `with SALES for month = '1997-07', country = 'Italy' by month, store
	assess storeSales against past 4
	using ratio(storeSales, benchmark.storeSales)
	labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`
	goldenAncestorStmt = `with SALES for country = 'France' by product, country
	assess quantity against ancestor type
	using difference(quantity, benchmark.quantity) labels quartiles`
)

// TestGoldenSQL pins the exact SQL and Python emitted for the plan of
// every benchmark kind under each feasible strategy, for assess and
// assess*, so any change to the generated formulation (Table 1's
// manual-effort baseline) shows up as a reviewable diff. Regenerate
// with: go test ./internal/sqlgen -run TestGoldenSQL -update
func TestGoldenSQL(t *testing.T) {
	type golden struct {
		name     string
		stmt     string
		strategy plan.Strategy
	}
	var cases []golden
	for _, k := range []struct {
		name string
		stmt string
		kind parser.BenchmarkKind
	}{
		{"constant", goldenConstantStmt, parser.BenchConstant},
		{"external", goldenExternalStmt, parser.BenchExternal},
		{"sibling", siblingStmt, parser.BenchSibling},
		{"past", goldenPastStmt, parser.BenchPast},
		{"ancestor", goldenAncestorStmt, parser.BenchAncestor},
	} {
		for _, star := range []bool{false, true} {
			stmt, suffix := k.stmt, ""
			if star {
				stmt, suffix = strings.Replace(stmt, "assess ", "assess* ", 1), "_star"
			}
			for _, s := range plan.Strategies() {
				if plan.Feasible(s, k.kind) {
					cases = append(cases, golden{k.name + "_" + strings.ToLower(s.String()) + suffix, stmt, s})
				}
			}
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := Generate(planFor(t, c.stmt, c.strategy))
			got := "-- SQL --\n" + g.SQL + "\n-- Python --\n" + g.Python
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: generated formulation differs from %s (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					c.name, path, got, want)
			}
		})
	}
}

// TestGoldenDeterministic guards the premise of the golden files: the
// generator must emit byte-identical output for the same plan.
func TestGoldenDeterministic(t *testing.T) {
	a := Generate(planFor(t, siblingStmt, plan.JOP))
	b := Generate(planFor(t, siblingStmt, plan.JOP))
	if a.SQL != b.SQL || a.Python != b.Python {
		t.Fatal("sqlgen output is not deterministic; golden files cannot work")
	}
}
