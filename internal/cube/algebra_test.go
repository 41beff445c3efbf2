package cube

import (
	"math"
	"math/rand"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
)

// randomCubes builds a random two-hierarchy schema and two random slices
// of it (a target slice on member u and a benchmark slice on member
// u_sib of the second hierarchy), for property-testing the algebraic
// rules of Section 5.1.
func randomCubes(rng *rand.Rand) (s *mdm.Schema, g mdm.GroupBy, all, target, bench *Cube, level mdm.LevelRef, u, uSib int32) {
	hp := mdm.NewHierarchy("P", "p")
	nP := 2 + rng.Intn(8)
	for i := 0; i < nP; i++ {
		hp.MustAddMember(string(rune('a' + i)))
	}
	hc := mdm.NewHierarchy("C", "c")
	hc.MustAddMember("u")
	hc.MustAddMember("v")
	hc.MustAddMember("w")
	s = mdm.NewSchema("T", []*mdm.Hierarchy{hp, hc},
		[]mdm.Measure{{Name: "m", Op: mdm.AggSum}})
	g = mdm.MustGroupBy(s, "p", "c")
	level, _ = s.FindLevel("c")
	u, uSib = 0, 1

	all = New(s, g, "m")
	target = New(s, g, "m")
	bench = New(s, g, "m")
	for p := int32(0); p < int32(nP); p++ {
		for c := int32(0); c < 2; c++ {
			if rng.Float64() < 0.3 {
				continue // sparse cube
			}
			v := math.Round(rng.Float64() * 100)
			coord := mdm.Coordinate{p, c}
			all.MustAddCell(coord, v)
			if c == u {
				target.MustAddCell(coord, v)
			} else {
				bench.MustAddCell(coord, v)
			}
		}
	}
	return
}

// TestPropertyP3JoinEqualsPivot verifies rule P3: joining two slices of
// one cube partially on G\{l} equals getting the slices together and
// pivoting on the reference member — for random sparse cubes, both in
// strict (inner) and outer form.
func TestPropertyP3JoinEqualsPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		s, g, all, target, bench, level, u, uSib := randomCubes(rng)
		on := g.Without(level)
		for _, outer := range []bool{false, true} {
			joined, err := PartialJoin(target, bench, on, "benchmark.", outer)
			if err != nil {
				t.Fatal(err)
			}
			pivoted, err := Pivot(all, level, u, []int32{uSib}, !outer,
				func(m, member string) string { return "benchmark." + m })
			if err != nil {
				t.Fatal(err)
			}
			if joined.Len() != pivoted.Len() {
				t.Fatalf("trial %d outer=%v: join has %d cells, pivot %d",
					trial, outer, joined.Len(), pivoted.Len())
			}
			bj, _ := joined.MeasureIndex("benchmark.m")
			bp, ok := pivoted.MeasureIndex("benchmark.m")
			if !ok {
				t.Fatalf("trial %d: pivot lacks benchmark column: %v", trial, pivoted.Names)
			}
			for i := range joined.Len() {
				coord := joined.Coord(i)
				pi, found := pivoted.Lookup(coord)
				if !found {
					t.Fatalf("trial %d: pivot lacks %s", trial, coord.Format(s, g))
				}
				a, b := joined.Cols[bj][i], pivoted.Cols[bp][pi]
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("trial %d %s: join %g pivot %g", trial, coord.Format(s, g), a, b)
				}
			}
		}
	}
}

// TestPropertyP1TransformCommutativity verifies rule P1: two transforms
// writing distinct columns that do not read each other's output commute.
func TestPropertyP1TransformCommutativity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	double := func(col []float64) []float64 {
		out := make([]float64, len(col))
		for i, v := range col {
			out[i] = 2 * v
		}
		return out
	}
	negate := func(col []float64) []float64 {
		out := make([]float64, len(col))
		for i, v := range col {
			out[i] = -v
		}
		return out
	}
	for trial := 0; trial < 100; trial++ {
		_, _, all, _, _, _, _, _ := randomCubes(rng)
		mk := func() *Cube {
			c := New(all.Schema, all.Group, "m")
			for i := range all.Len() {
				coord := all.Coord(i)
				c.MustAddCell(coord.Clone(), all.Cols[0][i])
			}
			return c
		}
		a, b := mk(), mk()
		// a: double then negate; b: negate then double.
		if err := a.AppendMeasure("d", double(a.Column(0))); err != nil {
			t.Fatal(err)
		}
		if err := a.AppendMeasure("n", negate(a.Column(0))); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendMeasure("n", negate(b.Column(0))); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendMeasure("d", double(b.Column(0))); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"d", "n"} {
			ja, _ := a.MeasureIndex(name)
			jb, _ := b.MeasureIndex(name)
			for i := range a.Len() {
				coord := a.Coord(i)
				bi, ok := b.Lookup(coord)
				if !ok || a.Cols[ja][i] != b.Cols[jb][bi] {
					t.Fatalf("trial %d: transforms do not commute on %s", trial, name)
				}
			}
		}
	}
}

// TestPropertyP2PushJoinThroughTransform verifies rule P2: transforming
// the benchmark before the join equals joining first and transforming
// the aliased column after.
func TestPropertyP2PushJoinThroughTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		_, g, _, target, bench, level, _, _ := randomCubes(rng)
		on := g.Without(level)
		scale := func(col []float64) []float64 {
			out := make([]float64, len(col))
			for i, v := range col {
				out[i] = v * 1.5
			}
			return out
		}
		// Pre-transform path: transform B, then join.
		b1 := New(bench.Schema, bench.Group, "m")
		for i := range bench.Len() {
			coord := bench.Coord(i)
			b1.MustAddCell(coord.Clone(), bench.Cols[0][i])
		}
		if err := b1.AppendMeasure("t", scale(b1.Column(0))); err != nil {
			t.Fatal(err)
		}
		pre, err := PartialJoin(target, b1, on, "benchmark.", false)
		if err != nil {
			t.Fatal(err)
		}
		// Post-transform path: join, then transform the aliased column.
		post, err := PartialJoin(target, bench, on, "benchmark.", false)
		if err != nil {
			t.Fatal(err)
		}
		bj, _ := post.MeasureIndex("benchmark.m")
		if err := post.AppendMeasure("benchmark.t", scale(post.Column(bj))); err != nil {
			t.Fatal(err)
		}
		tj, _ := pre.MeasureIndex("benchmark.t")
		tj2, _ := post.MeasureIndex("benchmark.t")
		if pre.Len() != post.Len() {
			t.Fatalf("trial %d: different cardinalities %d vs %d", trial, pre.Len(), post.Len())
		}
		for i := range pre.Len() {
			coord := pre.Coord(i)
			pi, ok := post.Lookup(coord)
			if !ok || pre.Cols[tj][i] != post.Cols[tj2][pi] {
				t.Fatalf("trial %d: P2 violated at %v", trial, coord)
			}
		}
	}
}
