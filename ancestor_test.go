package assess_test

import (
	"math"
	"strings"
	"testing"

	assess "github.com/assess-olap/assess"
)

// TestAncestorBenchmark exercises the future-work roll-up benchmark
// (Section 8): each product's quantity assessed against its type's
// total, as a share.
func TestAncestorBenchmark(t *testing.T) {
	s := figureOneSession(t)
	stmt := `with SALES
		for country = 'Italy'
		by product, country
		assess quantity against ancestor type
		using ratio(quantity, benchmark.quantity)
		labels {[0, 0.25): minor, [0.25, 0.5]: shared, (0.5, 1]: dominant}`
	np, err := s.ExecWith(stmt, assess.NP)
	if err != nil {
		t.Fatal(err)
	}
	jop, err := s.ExecWith(stmt, assess.JOP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecWith(stmt, assess.POP); err == nil {
		t.Error("POP accepted for an ancestor benchmark")
	}
	assertSameResult(t, np, jop)

	rows, err := np.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// Fresh Fruit total in Italy = 100 + 90 + 30 = 220.
	want := map[string]struct {
		share float64
		label string
	}{
		"Apple": {100.0 / 220, "shared"},
		"Pear":  {90.0 / 220, "shared"},
		"Lemon": {30.0 / 220, "minor"},
	}
	for _, r := range rows {
		w := want[r.Coordinate[0]]
		if math.Abs(r.Comparison-w.share) > 1e-9 {
			t.Errorf("%s: share = %g, want %g", r.Coordinate[0], r.Comparison, w.share)
		}
		if r.Benchmark != 220 {
			t.Errorf("%s: ancestor total = %g, want 220", r.Coordinate[0], r.Benchmark)
		}
		if r.Label != w.label {
			t.Errorf("%s: label = %q, want %q", r.Coordinate[0], r.Label, w.label)
		}
	}
}

func TestAncestorValidation(t *testing.T) {
	s := figureOneSession(t)
	bad := map[string]string{
		"unknown ancestor": `with SALES by product assess quantity
			against ancestor nosuch labels quartiles`,
		"hierarchy not in by": `with SALES by month assess quantity
			against ancestor type labels quartiles`,
		"not a proper ancestor": `with SALES by type assess quantity
			against ancestor type labels quartiles`,
		"finer than group level": `with SALES by category assess quantity
			against ancestor type labels quartiles`,
	}
	for name, stmt := range bad {
		if err := s.Validate(stmt); err == nil {
			t.Errorf("%s: accepted: %s", name, stmt)
		}
	}
}

func TestAncestorAssessStar(t *testing.T) {
	// assess* with an ancestor benchmark: every target cell always has an
	// ancestor, so star and plain assess agree when the benchmark slice is
	// complete.
	s := figureOneSession(t)
	stmt := `with SALES by product assess* quantity against ancestor category
		using percOfTotal(difference(quantity, benchmark.quantity))
		labels quartiles`
	star, err := s.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if star.Cube.Len() == 0 {
		t.Fatal("empty result")
	}
	for i := range star.Cube.Len() {
		if star.Cube.Labels.Name(i) == "null" {
			t.Error("ancestor benchmark produced a null label on complete data")
		}
	}
}

func TestAncestorExplainAndBestStrategy(t *testing.T) {
	s := figureOneSession(t)
	out, err := s.Explain(`with SALES by product, country assess quantity
		against ancestor category labels quartiles`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "JOP") || !strings.Contains(out, "roll-up join") {
		t.Errorf("explain = %s", out)
	}
	if assess.BestStrategy(assess.Ancestor) != assess.JOP {
		t.Error("best strategy for ancestor benchmarks should be JOP")
	}
	fs := assess.FeasibleStrategies(assess.Ancestor)
	if len(fs) != 2 || fs[0] != assess.NP || fs[1] != assess.JOP {
		t.Errorf("feasible strategies = %v", fs)
	}
}
