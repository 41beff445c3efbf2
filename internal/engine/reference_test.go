package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/storage"
)

// The scan pipeline against a reference. Dense and hash scans share
// accumulate, merge and finalize, and serial and parallel share the
// worker body: comparing them to each other checks none of that. refAggregate below is written for this file, one
// row and one map entry at a time, and every configuration of the
// pipeline must reproduce its cells, in ascending coordinate order, with
// its values — bit for bit, because the generated measures are
// integer-valued.

// refAggregate evaluates q over a resident fact table the slow way.
func refAggregate(f *storage.FactTable, q Query, ops []mdm.AggOp) ([]mdm.Coordinate, [][]float64) {
	type cell struct {
		coord         mdm.Coordinate
		sum, min, max []float64
		n             float64
	}
	s := f.Schema
	cells := make(map[string]*cell)
rows:
	for r := 0; r < f.Rows(); r++ {
		for _, p := range q.Preds {
			at := s.Hiers[p.Level.Hier].Rollup(f.Keys[p.Level.Hier][r], 0, p.Level.Level)
			if !slices.Contains(p.Members, at) {
				continue rows
			}
		}
		coord := make(mdm.Coordinate, len(q.Group))
		for gi, ref := range q.Group {
			coord[gi] = s.Hiers[ref.Hier].Rollup(f.Keys[ref.Hier][r], 0, ref.Level)
		}
		c := cells[fmt.Sprint(coord)]
		if c == nil {
			c = &cell{coord: coord}
			for range q.Measures {
				c.sum, c.min, c.max = append(c.sum, 0), append(c.min, math.Inf(1)), append(c.max, math.Inf(-1))
			}
			cells[fmt.Sprint(coord)] = c
		}
		c.n++
		for j, mi := range q.Measures {
			v := f.Meas[mi][r]
			c.sum[j] += v
			c.min[j] = math.Min(c.min[j], v)
			c.max[j] = math.Max(c.max[j], v)
		}
	}
	coords := make([]mdm.Coordinate, 0, len(cells))
	for _, c := range cells {
		coords = append(coords, c.coord)
	}
	slices.SortFunc(coords, func(a, b mdm.Coordinate) int { return slices.Compare(a, b) })
	vals := make([][]float64, len(ops))
	for _, coord := range coords {
		c := cells[fmt.Sprint(coord)]
		for j, op := range ops {
			v := c.n // AggCount
			switch op {
			case mdm.AggSum:
				v = c.sum[j]
			case mdm.AggAvg:
				v = c.sum[j] / c.n
			case mdm.AggMin:
				v = c.min[j]
			case mdm.AggMax:
				v = c.max[j]
			}
			vals[j] = append(vals[j], v)
		}
	}
	return coords, vals
}

// refSchema is K(k→g) × C(c) × W0..W6(w), every aggregation operator.
// Seven 1024-member W levels together span 2^70 coordinates: grouping by
// all of them has no 64-bit composite key.
func refSchema() *mdm.Schema {
	hk := mdm.NewHierarchy("K", "k", "g")
	for i := 0; i < 60; i++ {
		hk.MustAddMember(memberName(i), memberName(i%7))
	}
	hc := mdm.NewHierarchy("C", "c")
	for i := 0; i < 11; i++ {
		hc.MustAddMember(memberName(i))
	}
	hiers := []*mdm.Hierarchy{hk, hc}
	for w := 0; w < 7; w++ {
		h := mdm.NewHierarchy(fmt.Sprintf("W%d", w), fmt.Sprintf("w%d", w))
		for i := 0; i < 1024; i++ {
			h.MustAddMember(memberName(i))
		}
		hiers = append(hiers, h)
	}
	return mdm.NewSchema("T", hiers, []mdm.Measure{
		{Name: "s", Op: mdm.AggSum},
		{Name: "a", Op: mdm.AggAvg},
		{Name: "lo", Op: mdm.AggMin},
		{Name: "hi", Op: mdm.AggMax},
		{Name: "n", Op: mdm.AggCount},
	})
}

// refRows appends n generated rows: k below kCard, each w one of two ids
// at the ends of its domain (the last id of W3 is w3Top).
func refRows(t *testing.T, f *storage.FactTable, rng *rand.Rand, n, kCard int, w3Top int32) {
	t.Helper()
	for r := 0; r < n; r++ {
		keys := []int32{int32(rng.Intn(kCard)), int32(rng.Intn(11))}
		for w := 0; w < 7; w++ {
			top := int32(1023)
			if w == 3 {
				top = w3Top
			}
			keys = append(keys, []int32{int32(w), top}[rng.Intn(2)])
		}
		v := float64(rng.Intn(2001) - 1000)
		if err := f.Append(keys, []float64{v, v, v, v, 0}); err != nil {
			t.Fatal(err)
		}
	}
}

// refGrow grows two dictionaries of the fact's own schema — K gains 20
// members under three new g parents, W3 one member — and appends rows
// that use them.
func refGrow(t *testing.T, f *storage.FactTable, rng *rand.Rand) {
	t.Helper()
	for i := 60; i < 80; i++ {
		f.Schema.Hiers[0].MustAddMember(memberName(i), memberName(i%10))
	}
	f.Schema.Hiers[5].MustAddMember(memberName(1024))
	refRows(t, f, rng, 400, 80, 1024)
}

// dyingCtx reports cancellation from its fourth Err call on: a request
// that starts a scan and leaves it after a morsel or two, without a
// clock.
type dyingCtx struct {
	context.Context
	calls atomic.Int64
}

func (c *dyingCtx) Err() error {
	if c.calls.Add(1) > 3 {
		return context.Canceled
	}
	return nil
}

func TestKernelMatchesReference(t *testing.T) {
	s := refSchema()
	all := []int{0, 1, 2, 3, 4}
	wide := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"}
	pred := func(level string, ids ...int32) Predicate {
		ref, ok := s.FindLevel(level)
		if !ok {
			t.Fatalf("no level %s", level)
		}
		return Predicate{Level: ref, Members: ids}
	}
	// kernel names what a fact scan of the case must run on under the
	// default budget; with the budget at zero every dense case is hash.
	cases := []struct {
		kernel string
		q      Query
	}{
		{"dense", Query{Group: mdm.MustGroupBy(s, "k"), Measures: all}},
		{"dense", Query{Group: mdm.MustGroupBy(s, "g", "c"), Measures: []int{0, 4}, Preds: []Predicate{pred("w0", 1023)}}},
		{"dense", Query{Group: mdm.MustGroupBy(s, "c"), Measures: all, Preds: []Predicate{pred("g", 3)}}},
		{"dense", Query{Group: mdm.MustGroupBy(s), Measures: all}},
		{"dense", Query{Group: mdm.MustGroupBy(s, "k", "c"), Measures: []int{0, 2}, Preds: []Predicate{pred("k", 5, 6, 17, 70)}}},
		{"dense", Query{Group: mdm.MustGroupBy(s, "k"), Measures: []int{0}, Preds: []Predicate{pred("g")}}},
		{"dense", Query{Group: mdm.MustGroupBy(s, "g"), Measures: []int{1, 3}, Preds: []Predicate{pred("c", 2, 3), pred("k", 1, 2, 3, 5, 8, 13, 21, 34, 55, 61)}}},
		{"wide", Query{Group: mdm.MustGroupBy(s, wide...), Measures: all}},
		{"wide", Query{Group: mdm.MustGroupBy(s, append([]string{"k"}, wide...)...), Measures: []int{0, 4}, Preds: []Predicate{pred("c", 1, 2, 3)}}},
		{"wide", Query{Group: mdm.MustGroupBy(s, wide...), Measures: []int{0}, Preds: []Predicate{pred("g")}}},
	}
	for i := range cases {
		cases[i].q.Fact = "T"
	}
	for _, rows := range []int{0, 3000} {
		for _, backend := range []string{"resident", "segment", "view"} {
			for _, budget := range []int{-1, 0} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("rows=%d/%s/budget=%d/workers=%d", rows, backend, budget, workers)
					t.Run(name, func(t *testing.T) {
						// The reference copy and the engine's copy are generated
						// alike and grown alike, each on its own schema.
						ref := storage.NewFactTable(refSchema())
						refRng := rand.New(rand.NewSource(17))
						refRows(t, ref, refRng, rows, 60, 1023)

						rng := rand.New(rand.NewSource(17))
						fact := storage.NewFactTable(refSchema())
						if backend == "segment" {
							// 256-row segments, the last hundred rows in the WAL tail.
							refRows(t, fact, rng, max(rows-100, 0), 60, 1023)
							dir := t.TempDir()
							opts := colstore.Options{SegmentRows: 256, AutoCompactRows: -1}
							if err := persist.SaveCubeDir(dir, fact, opts); err != nil {
								t.Fatal(err)
							}
							seg, st, err := persist.OpenCubeDir(dir, opts)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { st.Close() })
							fact = seg
							refRows(t, fact, rng, min(rows, 100), 60, 1023)
						} else {
							refRows(t, fact, rng, rows, 60, 1023)
						}
						e := New()
						e.SetDenseKeyBudget(budget)
						e.SetParallelism(workers)
						e.SetParallelMinRows(50)
						e.SetMorselSize(64)
						if err := e.Register("T", fact); err != nil {
							t.Fatal(err)
						}
						if backend == "view" {
							// Every case is strictly coarser: a roll-up over the view's columns.
							if err := e.Materialize("T", mdm.MustGroupBy(fact.Schema, append([]string{"k", "c"}, wide...)...)); err != nil {
								t.Fatal(err)
							}
						}

						check := func(phase string) {
							want := func(ci int) ([]mdm.Coordinate, [][]float64) {
								ops, _, err := schemaOps(ref.Schema, cases[ci].q)
								if err != nil {
									t.Fatal(err)
								}
								return refAggregate(ref, cases[ci].q, ops)
							}
							for ci, c := range cases {
								label := fmt.Sprintf("%s case %d", phase, ci)
								ops, _, _ := schemaOps(fact.Schema, c.q)
								sq, err := e.prepare(context.Background(), fact, c.q, ops)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								kernel, wantKernel := "hash", c.kernel
								if sq.dense > 0 {
									kernel = "dense"
								} else if sq.space.Wide() {
									kernel = "wide"
								}
								if wantKernel == "dense" && budget == 0 {
									wantKernel = "hash"
								}
								if kernel != wantKernel {
									t.Fatalf("%s: prepared for the %s kernel, want %s", label, kernel, wantKernel)
								}
								got, err := e.aggregate(context.Background(), c.q)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								coords, vals := want(ci)
								sameCells(t, label, got, coords, vals)
								if rows == 0 {
									continue // no morsel to leave from
								}
								dying := &dyingCtx{Context: context.Background()}
								if _, err := e.aggregate(dying, c.q); !errors.Is(err, context.Canceled) {
									t.Errorf("%s, request leaves mid-scan: err %v, want context.Canceled", label, err)
								}
							}
						}
						check("initial")
						refGrow(t, ref, refRng)
						refGrow(t, fact, rng)
						check("grown")
					})
				}
			}
		}
	}
}

// sameCells requires the cube to hold exactly the reference's cells, in
// its order, with its values.
func sameCells(t *testing.T, label string, got *cube.Cube, coords []mdm.Coordinate, vals [][]float64) {
	t.Helper()
	if got.Len() != len(coords) {
		t.Fatalf("%s: %d cells, reference has %d", label, got.Len(), len(coords))
	}
	for i, coord := range coords {
		if !slices.Equal(got.Coords[i], coord) {
			t.Fatalf("%s: cell %d is %v, reference has %v (ascending key order)", label, i, got.Coords[i], coord)
		}
		for j := range vals {
			if got.Cols[j][i] != vals[j][i] {
				t.Errorf("%s: cell %v measure %s = %v, reference %v", label, coord, got.Names[j], got.Cols[j][i], vals[j][i])
			}
		}
	}
}
