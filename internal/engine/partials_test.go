package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// TestCombineEqualsRollupEqualsScan: the cube at a group-by set is the same
// whether the engine scans the fact, re-aggregates a view held at that
// group-by set, or combines the sub-aggregates two shards computed over
// disjoint halves of the rows — for each of the five operators alone and
// for all of them at once, on every kernel. The measures are
// integer-valued, so the three agree bit for bit.
func TestCombineEqualsRollupEqualsScan(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 3000, 9)
	halves := [2]*storage.FactTable{storage.NewFactTable(s), storage.NewFactTable(s)}
	src := f.ScanSource(storage.ColSet{}, nil)
	cols, _, err := src.Block(0, new(storage.BlockScratch))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cols.Rows; r++ {
		keys := []int32{cols.Keys[0][r], cols.Keys[1][r]}
		vals := make([]float64, len(cols.Meas))
		for m := range vals {
			vals[m] = cols.Meas[m][r]
		}
		halves[r%3%2].MustAppend(keys, vals) // uneven halves
	}
	src.Close()
	var shards [2]*Engine
	for i, h := range halves {
		shards[i] = New()
		if err := shards[i].Register("T", h); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	requests := [][]int{{0}, {1}, {2}, {3}, {4}, {0, 1, 2, 3, 4}, {4, 1, 1}}
	for name, e := range kernelEngines(t, f) {
		for _, g := range []mdm.GroupBy{mdm.MustGroupBy(s, "g", "c"), mdm.MustGroupBy(s, "k"), {}} {
			if len(g) > 0 {
				if err := e.Materialize("T", g); err != nil {
					t.Fatal(err)
				}
			}
			for _, meas := range requests {
				label := fmt.Sprintf("%s %s %v", name, g.String(s), meas)
				q := Query{Fact: "T", Group: g, Measures: meas}
				ops, names, err := schemaOps(s, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.ScanWithOps(ctx, q, ops, names)
				if err != nil {
					t.Fatal(err)
				}

				p := Decompose(meas, ops)
				pq := Query{Fact: "T", Group: g, Measures: p.Measures}
				parts := make([]*cube.Cube, len(shards))
				for i, sh := range shards {
					if parts[i], err = sh.ScanWithOps(ctx, pq, p.Ops, make([]string, len(p.Ops))); err != nil {
						t.Fatal(err)
					}
				}
				got, err := e.Combine(ctx, q, p, names, parts)
				if err != nil {
					t.Fatal(err)
				}
				sameCells(t, label+" combined", got, coordsOf(want), want.Cols)

				if len(g) == 0 {
					continue // no view at the empty group-by set
				}
				if got, err = e.rollupFromView(ctx, f, viewAt(t, e, g), q); err != nil {
					t.Fatal(err)
				}
				sameCells(t, label+" from the view", got, coordsOf(want), want.Cols)
			}
		}
	}
}

// TestReaggregateSkipsADenseTableForFewCells: a handful of cells over a key
// space the dense budget allows still go through the slot table — zeroing
// the key space would cost more than the cells.
func TestReaggregateSkipsADenseTableForFewCells(t *testing.T) {
	s := twoHierSchema(4000, 200) // 800 000 slots: dense on a fact scan
	f := intFact(s, 50, 3)
	e := New()
	if err := e.Register("T", f); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k", "c"), Measures: []int{0, 1}}
	ops, names, _ := schemaOps(s, q)
	dense, hash := mKernelDense.Value(), mKernelHash.Value()
	want, err := e.ScanWithOps(context.Background(), q, ops, names)
	if err != nil {
		t.Fatal(err)
	}
	if mKernelDense.Value() != dense+1 {
		t.Fatal("the fixture's fact scan is not dense")
	}
	p := Decompose(q.Measures, ops)
	part, err := e.ScanWithOps(context.Background(), Query{Fact: "T", Group: q.Group, Measures: p.Measures}, p.Ops, make([]string, len(p.Ops)))
	if err != nil {
		t.Fatal(err)
	}
	dense = mKernelDense.Value()
	got, err := e.Combine(context.Background(), q, p, names, []*cube.Cube{part})
	if err != nil {
		t.Fatal(err)
	}
	if mKernelDense.Value() != dense || mKernelHash.Value() != hash+1 {
		t.Fatalf("combining %d cells over 800 000 slots: %d dense, %d slot-table scans", part.Len(),
			mKernelDense.Value()-dense, mKernelHash.Value()-hash)
	}
	sameCells(t, "few cells", got, coordsOf(want), want.Cols)
}
