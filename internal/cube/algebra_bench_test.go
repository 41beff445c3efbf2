package cube

import (
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/mdm"
)

// The intentions' client-side operators at SSB scale factor 1 (30 000
// customers, 7 years), against the string-keyed reference of
// reference_test.go. Each iteration starts from cubes that hold no index,
// as every statement's do, so the index build is timed with the probes
// and the assembly. speedup is reference time over the operator's time
// for the same cells.

// BenchmarkPartialJoin is the External intention's join: the target is
// EUROPE's customers (one in five) by year, the benchmark every customer
// by year, joined on both levels.
func BenchmarkPartialJoin(b *testing.B) {
	target, budget := externalShape(30000)
	refTime := timeReference(b, func() {
		if _, err := refPartialJoin(target.r, budget.r, target.c.Group, "benchmark.", false); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := PartialJoin(unindexed(target.c), unindexed(budget.c), target.c.Group, "benchmark.", false)
		if err != nil || out.Len() != target.c.Len() {
			b.Fatalf("PartialJoin: %d cells, %v", out.Len(), err)
		}
	}
	b.ReportMetric(float64(refTime)/float64(b.Elapsed()), "speedup")
}

// BenchmarkPivot is the Sibling intention's pivot: every customer's 1997
// and 1996 cells, the 1996 measures moved beside the 1997 ones, cells
// missing either year dropped.
func BenchmarkPivot(b *testing.B) {
	sib, year, ref, neighbors := siblingShape(30000)
	refTime := timeReference(b, func() {
		if _, err := refPivot(sib.r, year, ref, neighbors, true, nil); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Pivot(unindexed(sib.c), year, ref, neighbors, true, nil)
		if err != nil || out.Len() == 0 {
			b.Fatalf("Pivot: %d cells, %v", out.Len(), err)
		}
	}
	b.ReportMetric(float64(refTime)/float64(b.Elapsed()), "speedup")
}

// TestAlgebraBenchShapesAgree keeps the benchmarks honest: on their
// shapes, at a smaller scale, both sides give the same cube.
func TestAlgebraBenchShapesAgree(t *testing.T) {
	target, budget := externalShape(300)
	got, gerr := PartialJoin(target.c, budget.c, target.c.Group, "benchmark.", false)
	want, werr := refPartialJoin(target.r, budget.r, target.c.Group, "benchmark.", false)
	same(t, "PartialJoin", got, gerr, want, werr)

	sib, year, ref, neighbors := siblingShape(300)
	got, gerr = Pivot(sib.c, year, ref, neighbors, true, nil)
	want, werr = refPivot(sib.r, year, ref, neighbors, true, nil)
	same(t, "Pivot", got, gerr, want, werr)
}

// timeReference runs the reference side b.N times and returns its time.
func timeReference(b *testing.B, ref func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		ref()
	}
	return time.Since(t0)
}

// unindexed is c as a statement receives it: the same columns, no index.
func unindexed(c *Cube) *Cube {
	out, err := Build(c.Schema, c.Group, c.Names, c.Len(), c.Keys, c.Cols)
	if err != nil {
		panic(err)
	}
	return out
}

// externalShape returns the target (one customer in five, every year) and
// the budget (every customer and year) cubes over customers × 7 years,
// both ways.
func externalShape(customers int) (target, budget both) {
	s, g := assembleSchema(customers)
	var tc, bc []mdm.Coordinate
	for c := range customers {
		for y := range 7 {
			coord := mdm.Coordinate{int32(c), int32(y)}
			bc = append(bc, coord)
			if c%5 == 0 {
				tc = append(tc, coord)
			}
		}
	}
	return fill(s, g, []string{"revenue"}, tc, shapeVals(len(tc)), true),
		fill(s, g, []string{"expectedRevenue"}, bc, shapeVals(len(bc)), true)
}

// siblingShape returns the customers × {1997, 1996} cube, a customer in
// ten lacking 1996, both ways, with the pivot's level, reference member
// and neighbors.
func siblingShape(customers int) (sib both, year mdm.LevelRef, ref int32, neighbors []int32) {
	s, g := assembleSchema(customers)
	years := s.Dict(g[1])
	y97, _ := years.Lookup("1997")
	y96, _ := years.Lookup("1996")
	var coords []mdm.Coordinate
	for c := range customers {
		coords = append(coords, mdm.Coordinate{int32(c), y97})
		if c%10 != 0 {
			coords = append(coords, mdm.Coordinate{int32(c), y96})
		}
	}
	return fill(s, g, []string{"revenue"}, coords, shapeVals(len(coords)), true), g[1], y97, []int32{y96}
}

func shapeVals(n int) [][]float64 {
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{float64(1000 + i*37%9973)}
	}
	return vals
}
