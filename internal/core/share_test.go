package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
)

// TestViewAnswerSharedSafely: a statement whose pushed get is an exact,
// unpredicated view answer is handed the view's own columns, and its
// transform, sorts, label and rendering must leave them bit for bit as
// they were: no operator writes into a column it did not allocate.
// Statements sharing the view run concurrently, for the race detector.
func TestViewAnswerSharedSafely(t *testing.T) {
	s := newSession(t)
	if err := s.Materialize("SALES", "product", "country"); err != nil {
		t.Fatal(err)
	}
	f, _ := s.Engine.Fact("SALES")
	q := engine.Query{Fact: "SALES", Group: mdm.MustGroupBy(f.Schema, "product", "country")}
	for j := range f.Schema.Measures {
		q.Measures = append(q.Measures, j)
	}
	view := func() ([][]int32, [][]float64) {
		a, err := s.Engine.GetContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Engine.GetContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Cols {
			if &a.Cols[j][0] != &b.Cols[j][0] {
				t.Fatal("two exact answers do not share the view's columns: the fixture misses the view")
			}
		}
		return a.Keys, a.Cols
	}
	keys, cols := view()
	wantKeys, wantCols := make([][]int32, len(keys)), make([][]float64, len(cols))
	for p, col := range keys {
		wantKeys[p] = slices.Clone(col)
	}
	for j, col := range cols {
		wantCols[j] = slices.Clone(col)
	}

	stmts := []string{
		`with SALES by product, country assess quantity against 1000 using ratio(quantity, 1000) labels quartiles`,
		`with SALES by product, country assess quantity against 1000 using rank(quantity) labels {[0, 5): top, [5, inf): rest}`,
		`with SALES by country, product assess storeSales against 10 using zScore(storeSales) labels zscore`,
	}
	exact := obsv.Default.Counter("assess_engine_view_total", "", "mode", "exact")
	before := exact.Value()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range 6 {
				res, err := s.Exec(stmts[(w+k)%len(stmts)])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Cube.Labels == nil || res.Cube.Len() != len(wantCols[0]) {
					t.Errorf("%s: %d cells, labelled %v", res.Plan.Bound.Stmt.Text, res.Cube.Len(), res.Cube.Labels != nil)
					return
				}
				if _, err := res.Render(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := exact.Value() - before; got < 4*6 {
		t.Errorf("%d of the statements' gets were exact view answers, want all %d", got, 4*6)
	}

	keys, cols = view()
	for p := range keys {
		if !slices.Equal(keys[p], wantKeys[p]) {
			t.Errorf("the view's key column %d changed", p)
		}
	}
	for j := range cols {
		for i, v := range cols[j] {
			if math.Float64bits(v) != math.Float64bits(wantCols[j][i]) {
				t.Fatalf("the view's measure column %d changed at cell %d: %v, was %v", j, i, v, wantCols[j][i])
			}
		}
	}
}
