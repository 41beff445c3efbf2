package cube

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
)

// The tests here hold every operator of the package to the reference of
// reference_test.go over seeded random schemas: same cells, same values
// bit for bit, same order, and an error exactly when the reference errs.

// randomSchema builds nh hierarchies of one to three levels with up to
// maxBase base members each. Member names carry a random prefix, so name
// order is unrelated to id order.
func randomSchema(rng *rand.Rand, nh, maxBase int) *mdm.Schema {
	hiers := make([]*mdm.Hierarchy, nh)
	for h := range hiers {
		depth := 1 + rng.Intn(3)
		levels := make([]string, depth)
		for d := range levels {
			levels[d] = fmt.Sprintf("h%dl%d", h, d)
		}
		hiers[h] = mdm.NewHierarchy(fmt.Sprintf("H%d", h), levels...)
		// counts[d] members at level d; parent[d][i] is i's parent at d+1.
		counts := make([]int, depth)
		counts[0] = 1 + rng.Intn(maxBase)
		for d := 1; d < depth; d++ {
			counts[d] = 1 + rng.Intn(counts[d-1])
		}
		names := make([][]string, depth)
		parent := make([][]int, depth)
		for d := range names {
			names[d] = make([]string, counts[d])
			parent[d] = make([]int, counts[d])
			for i := range names[d] {
				names[d][i] = fmt.Sprintf("%c%c-%d.%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), d, i)
				if d+1 < depth {
					parent[d][i] = rng.Intn(counts[d+1])
				}
			}
		}
		for i := 0; i < counts[0]; i++ {
			path := make([]string, depth)
			for d, at := 0, i; d < depth; d++ {
				path[d] = names[d][at]
				at = parent[d][at]
			}
			hiers[h].MustAddMember(path...)
		}
	}
	return mdm.NewSchema("T", hiers, []mdm.Measure{{Name: "m", Op: mdm.AggSum}})
}

// randomGroup picks one level of some of the schema's hierarchies.
func randomGroup(rng *rand.Rand, s *mdm.Schema) mdm.GroupBy {
	var g mdm.GroupBy
	for h, hier := range s.Hiers {
		if rng.Intn(4) > 0 {
			g = append(g, mdm.LevelRef{Hier: h, Level: rng.Intn(hier.Depth())})
		}
	}
	return g
}

// both is one cube in its two implementations.
type both struct {
	c *Cube
	r *refCube
}

// fill builds the same cube both ways from cells in the given order; the
// new one through Build or cell by cell, as bulk says.
func fill(s *mdm.Schema, g mdm.GroupBy, names []string, coords []mdm.Coordinate, vals [][]float64, bulk bool) both {
	r := refNew(s, g, names...)
	for i, coord := range coords {
		if err := r.AddCell(coord.Clone(), slices.Clone(vals[i])); err != nil {
			panic(err)
		}
	}
	if !bulk {
		c := New(s, g, names...)
		for i, coord := range coords {
			c.MustAddCell(coord, vals[i]...)
		}
		return both{c, r}
	}
	ids := make([]int32, 0, len(coords)*len(g))
	cols := make([][]float64, len(names))
	for i, coord := range coords {
		ids = append(ids, coord...)
		for j := range cols {
			cols[j] = append(cols[j], vals[i][j])
		}
	}
	c, err := Build(s, g, names, Carve(ids, len(coords), len(g)), cols)
	if err != nil {
		panic(err)
	}
	return both{c, r}
}

// randomCoords draws distinct coordinates of g, keeping each point of the
// cross product with probability density (sampling when it is large), in
// random order. pin fixes positions to one member (-1 = free).
func randomCoords(rng *rand.Rand, s *mdm.Schema, g mdm.GroupBy, density float64, pin []int32) []mdm.Coordinate {
	space := 1
	for _, ref := range g {
		space = min(space*s.Dict(ref).Len(), 1<<20)
	}
	seen := make(map[string]bool)
	var coords []mdm.Coordinate
	for k := 0; k < min(space, 400); k++ {
		coord := make(mdm.Coordinate, len(g))
		for p, at := len(g)-1, k; p >= 0; p-- {
			n := s.Dict(g[p]).Len()
			coord[p] = int32(at % n)
			at /= n
			if space > 400 {
				coord[p] = int32(rng.Intn(n))
			}
			if pin != nil && pin[p] >= 0 {
				coord[p] = pin[p]
			}
		}
		if rng.Float64() < density && !seen[mdm.WideKey(coord, nil)] {
			seen[mdm.WideKey(coord, nil)] = true
			coords = append(coords, coord)
		}
	}
	rng.Shuffle(len(coords), func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
	return coords
}

func randomVals(rng *rand.Rand, n, width int) [][]float64 {
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, width)
		for j := range vals[i] {
			vals[i][j] = math.Round(rng.NormFloat64()*1000) / 8
			if rng.Intn(20) == 0 {
				vals[i][j] = math.NaN()
			}
		}
	}
	return vals
}

// randomCube is a random cube over g with one or two measures.
func randomCube(rng *rand.Rand, s *mdm.Schema, g mdm.GroupBy, pin []int32) both {
	names := []string{"m", "n"}[:1+rng.Intn(2)]
	coords := randomCoords(rng, s, g, 0.2+0.8*rng.Float64(), pin)
	return fill(s, g, names, coords, randomVals(rng, len(coords), len(names)), rng.Intn(2) == 0)
}

// same fails the test unless got equals want cell for cell, or both
// operators erred.
func same(t *testing.T, what string, got *Cube, gerr error, want *refCube, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !slices.Equal(got.Names, want.Names) {
		t.Fatalf("%s: names %v, reference %v", what, got.Names, want.Names)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, reference %d", what, got.Len(), want.Len())
	}
	for i := range want.Coords {
		if !slices.Equal(got.Coords[i], want.Coords[i]) {
			t.Fatalf("%s: cell %d is %v, reference %v", what, i, got.Coords[i], want.Coords[i])
		}
		for j := range want.Cols {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
				t.Fatalf("%s: cell %d column %s is %v, reference %v", what, i, got.Names[j], got.Cols[j][i], want.Cols[j][i])
			}
		}
	}
	if !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: labels differ from the reference", what)
	}
	// The lazily built index agrees with the cells as they now stand.
	for i, coord := range got.Coords {
		if at, ok := got.Lookup(coord); !ok || at != i {
			t.Fatalf("%s: Lookup(%v) = %d, %v; the cell is at %d", what, coord, at, ok, i)
		}
	}
}

func forSeeds(t *testing.T, n int, f func(t *testing.T, rng *rand.Rand, s *mdm.Schema)) {
	for seed := int64(1); seed <= int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, 1+rng.Intn(4), 2+rng.Intn(7))
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { f(t, rng, s) })
	}
}

func TestJoinsMatchReference(t *testing.T) {
	forSeeds(t, 300, func(t *testing.T, rng *rand.Rand, s *mdm.Schema) {
		g := randomGroup(rng, s)
		left := randomCube(rng, s, g, nil)
		// Join on a random subset of the levels; half the time the right
		// side is a single slice of the others, as the plans produce it,
		// otherwise the join is usually ambiguous and must say so.
		var on []mdm.LevelRef
		pin := make([]int32, len(g))
		for p, ref := range g {
			pin[p] = -1
			if rng.Intn(3) > 0 {
				on = append(on, ref)
			} else if rng.Intn(2) == 0 {
				pin[p] = int32(rng.Intn(s.Dict(ref).Len()))
			}
		}
		right := randomCube(rng, s, g, pin)
		for _, outer := range []bool{false, true} {
			got, gerr := PartialJoin(left.c, right.c, on, "b.", outer)
			want, werr := refPartialJoin(left.r, right.r, on, "b.", outer)
			same(t, fmt.Sprint("PartialJoin outer=", outer), got, gerr, want, werr)

			full := randomCube(rng, s, g, nil)
			got, gerr = Join(left.c, full.c, "b.", outer)
			want, werr = refJoin(left.r, full.r, "b.", outer)
			same(t, fmt.Sprint("Join outer=", outer), got, gerr, want, werr)
		}
	})
}

func TestPivotMatchesReference(t *testing.T) {
	forSeeds(t, 300, func(t *testing.T, rng *rand.Rand, s *mdm.Schema) {
		g := randomGroup(rng, s)
		if len(g) == 0 {
			g = mdm.GroupBy{{Hier: 0, Level: 0}}
		}
		c := randomCube(rng, s, g, nil)
		level := g[rng.Intn(len(g))]
		n := s.Dict(level).Len()
		ref := int32(rng.Intn(n))
		explicit := make([]int32, rng.Intn(4))
		for i := range explicit {
			explicit[i] = int32(rng.Intn(n)) // may be absent from the data, or ref itself
		}
		for _, neighbors := range [][]int32{nil, explicit} {
			for _, strict := range []bool{false, true} {
				got, gerr := Pivot(c.c, level, ref, neighbors, strict, nil)
				want, werr := refPivot(c.r, level, ref, neighbors, strict, nil)
				same(t, fmt.Sprint("Pivot neighbors=", neighbors, " strict=", strict), got, gerr, want, werr)
			}
		}
	})
}

func TestMultiplyJoinMatchesReference(t *testing.T) {
	forSeeds(t, 300, func(t *testing.T, rng *rand.Rand, s *mdm.Schema) {
		g := randomGroup(rng, s)
		if len(g) == 0 {
			g = mdm.GroupBy{{Hier: 0, Level: 0}}
		}
		lp := rng.Intn(len(g))
		n := s.Dict(g[lp]).Len()
		// The target is one slice of the level (the plans' shape) two
		// times in three; otherwise output coordinates may collide, which
		// both sides must report.
		pin := make([]int32, len(g))
		for p := range pin {
			pin[p] = -1
		}
		if rng.Intn(3) > 0 {
			pin[lp] = int32(rng.Intn(n))
		}
		left := randomCube(rng, s, g, pin)
		right := randomCube(rng, s, g, nil)
		members := make([]int32, 1+rng.Intn(3))
		for i := range members {
			members[i] = int32(rng.Intn(n)) // repeats collide too
		}
		for _, outer := range []bool{false, true} {
			got, gerr := MultiplyJoin(left.c, right.c, g[lp], members, "b.", outer)
			want, werr := refMultiplyJoin(left.r, right.r, g[lp], members, "b.", outer)
			same(t, fmt.Sprint("MultiplyJoin members=", members, " outer=", outer), got, gerr, want, werr)
		}
	})
}

func TestRollupJoinMatchesReference(t *testing.T) {
	forSeeds(t, 300, func(t *testing.T, rng *rand.Rand, s *mdm.Schema) {
		g := randomGroup(rng, s)
		// The benchmark's group-by: each level kept, coarsened, or rolled
		// up entirely.
		var bg mdm.GroupBy
		for _, ref := range g {
			switch rng.Intn(3) {
			case 0:
				bg = append(bg, ref)
			case 1:
				depth := s.Hiers[ref.Hier].Depth()
				bg = append(bg, mdm.LevelRef{Hier: ref.Hier, Level: ref.Level + rng.Intn(depth-ref.Level)})
			}
		}
		target := randomCube(rng, s, g, nil)
		bench := randomCube(rng, s, bg, nil)
		for _, outer := range []bool{false, true} {
			got, gerr := RollupJoin(target.c, bench.c, "b.", outer)
			want, werr := refRollupJoin(target.r, bench.r, "b.", outer)
			same(t, fmt.Sprint("RollupJoin outer=", outer), got, gerr, want, werr)
		}
	})
}

func TestSliceProjectSortMatchReference(t *testing.T) {
	forSeeds(t, 300, func(t *testing.T, rng *rand.Rand, s *mdm.Schema) {
		g := randomGroup(rng, s)
		pin := make([]int32, len(g))
		for p := range pin {
			pin[p] = -1
		}
		lp := -1
		if len(g) > 0 {
			lp = rng.Intn(len(g))
			if rng.Intn(3) > 0 {
				pin[lp] = int32(rng.Intn(s.Dict(g[lp]).Len()))
			}
		}
		c := randomCube(rng, s, g, pin)
		if rng.Intn(2) == 0 {
			labels := make([]string, c.c.Len())
			for i := range labels {
				labels[i] = fmt.Sprint("label", rng.Intn(3))
			}
			c.c.Labels, c.r.Labels = labels, slices.Clone(labels)
		}

		if lp >= 0 {
			member := int32(rng.Intn(s.Dict(g[lp]).Len()))
			got, gerr := c.c.ReplaceSlice(g[lp], member)
			want, werr := c.r.ReplaceSlice(g[lp], member)
			same(t, "ReplaceSlice", got, gerr, want, werr)
		}

		keep := [][]string{{"m"}, {"n"}, {"n", "m"}, {"m", "m"}}[rng.Intn(4)]
		rename := map[string]string{"m": "renamed"}
		proj, gerr := c.c.Project(keep, rename)
		rproj, werr := c.r.Project(keep, rename)
		same(t, fmt.Sprint("Project ", keep), proj, gerr, rproj, werr)

		// Sorting permutes into fresh columns: a projection made before
		// keeps the order it was made in.
		before := slices.Clone(c.c.Coords)
		c.c.SortByCoordinate()
		c.r.SortByCoordinate()
		same(t, "SortByCoordinate", c.c, nil, c.r, nil)
		if gerr == nil && !slices.EqualFunc(proj.Coords, before, func(a, b mdm.Coordinate) bool { return slices.Equal(a, b) }) {
			t.Fatal("sorting a cube reordered its earlier projection")
		}
		// A second sort finds the order already there and moves nothing.
		if c.c.Len() > 0 {
			first := &c.c.Coords[0]
			c.c.SortByCoordinate()
			if first != &c.c.Coords[0] {
				t.Fatal("sorting a sorted cube reallocated its coordinates")
			}
			same(t, "SortByCoordinate twice", c.c, nil, c.r, nil)
		}
	})
}

// wideSchema has a key space of 2^70: seven hierarchies of 1024 members.
func wideSchema() (*mdm.Schema, mdm.GroupBy) {
	hiers := make([]*mdm.Hierarchy, 7)
	g := make(mdm.GroupBy, len(hiers))
	for h := range hiers {
		hiers[h] = mdm.NewHierarchy(fmt.Sprintf("H%d", h), fmt.Sprintf("h%dl0", h))
		for i := 0; i < 1024; i++ {
			hiers[h].MustAddMember(fmt.Sprintf("%04d", (i*389+h)%1024))
		}
		g[h] = mdm.LevelRef{Hier: h}
	}
	return mdm.NewSchema("W", hiers, []mdm.Measure{{Name: "m", Op: mdm.AggSum}}), g
}

// TestWideKeySpaceFallsBack runs every operator over a group-by whose key
// space overflows 64 bits, where tables key on byte strings and the sort
// compares rank tuples.
func TestWideKeySpaceFallsBack(t *testing.T) {
	s, g := wideSchema()
	if !s.KeySpace(g).Wide() {
		t.Fatal("fixture's key space fits 64 bits")
	}
	rng := rand.New(rand.NewSource(5))
	pin := []int32{-1, -1, -1, -1, -1, -1, 3}
	left := randomCube(rng, s, g, pin)
	right := randomCube(rng, s, g, pin)
	if left.c.Len() < 50 {
		t.Fatalf("fixture has %d cells", left.c.Len())
	}
	// Give the sides cells in common.
	shared := left.r.Coords[:left.c.Len()/2]
	right = fill(s, g, []string{"m"}, shared, randomVals(rng, len(shared), 1), true)

	got, gerr := Join(left.c, right.c, "b.", true)
	want, werr := refJoin(left.r, right.r, "b.", true)
	same(t, "Join", got, gerr, want, werr)

	on := []mdm.LevelRef{g[0], g[1], g[2], g[3], g[4], g[5]}
	got, gerr = PartialJoin(left.c, right.c, on, "b.", false)
	want, werr = refPartialJoin(left.r, right.r, on, "b.", false)
	same(t, "PartialJoin", got, gerr, want, werr)

	members := []int32{3, 9}
	got, gerr = MultiplyJoin(left.c, right.c, g[6], members, "b.", true)
	want, werr = refMultiplyJoin(left.r, right.r, g[6], members, "b.", true)
	same(t, "MultiplyJoin", got, gerr, want, werr)

	got, gerr = Pivot(left.c, g[0], left.r.Coords[0][0], nil, false, nil)
	want, werr = refPivot(left.r, g[0], left.r.Coords[0][0], nil, false, nil)
	same(t, "Pivot", got, gerr, want, werr)

	got, gerr = RollupJoin(left.c, right.c, "b.", false)
	want, werr = refRollupJoin(left.r, right.r, "b.", false)
	same(t, "RollupJoin", got, gerr, want, werr)

	got, gerr = left.c.ReplaceSlice(g[6], 7)
	want, werr = left.r.ReplaceSlice(g[6], 7)
	same(t, "ReplaceSlice", got, gerr, want, werr)

	left.c.SortByCoordinate()
	left.r.SortByCoordinate()
	same(t, "SortByCoordinate", left.c, nil, left.r, nil)
}

// TestSmallCubes covers the zero-level group-by and cubes of no and one
// cell.
func TestSmallCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSchema(rng, 2, 5)
	for _, g := range []mdm.GroupBy{{}, {{Hier: 0}}, {{Hier: 0}, {Hier: 1}}} {
		for n := 0; n <= 1; n++ {
			for _, bulk := range []bool{false, true} {
				coords := []mdm.Coordinate{make(mdm.Coordinate, len(g))}[:n]
				a := fill(s, g, []string{"m"}, coords, randomVals(rng, n, 1), bulk)
				b := fill(s, g, []string{"m"}, coords, randomVals(rng, n, 1), !bulk)
				what := fmt.Sprintf("%d levels, %d cells: ", len(g), n)

				got, gerr := Join(a.c, b.c, "b.", true)
				want, werr := refJoin(a.r, b.r, "b.", true)
				same(t, what+"Join", got, gerr, want, werr)

				got, gerr = RollupJoin(a.c, b.c, "b.", false)
				want, werr = refRollupJoin(a.r, b.r, "b.", false)
				same(t, what+"RollupJoin", got, gerr, want, werr)

				if len(g) > 0 {
					got, gerr = Pivot(a.c, g[0], 0, nil, true, nil)
					want, werr = refPivot(a.r, g[0], 0, nil, true, nil)
					same(t, what+"Pivot", got, gerr, want, werr)

					got, gerr = MultiplyJoin(a.c, b.c, g[0], []int32{0}, "b.", false)
					want, werr = refMultiplyJoin(a.r, b.r, g[0], []int32{0}, "b.", false)
					same(t, what+"MultiplyJoin", got, gerr, want, werr)

					got, gerr = a.c.ReplaceSlice(g[0], 0)
					want, werr = a.r.ReplaceSlice(g[0], 0)
					same(t, what+"ReplaceSlice", got, gerr, want, werr)
				}
				a.c.SortByCoordinate()
				a.r.SortByCoordinate()
				same(t, what+"SortByCoordinate", a.c, nil, a.r, nil)
			}
		}
	}
}

// TestSortAfterDictionaryGrowth sorts once (caching the rank tables), then
// grows a dictionary with members that sort before, between and after the
// old ones: the next sort must rank the new names.
func TestSortAfterDictionaryGrowth(t *testing.T) {
	h := mdm.NewHierarchy("K", "k")
	for _, n := range []string{"m", "d", "t"} {
		h.MustAddMember(n)
	}
	s := mdm.NewSchema("T", []*mdm.Hierarchy{h}, []mdm.Measure{{Name: "m", Op: mdm.AggSum}})
	g := mdm.MustGroupBy(s, "k")
	build := func() both {
		n := s.Dict(g[0]).Len()
		coords := make([]mdm.Coordinate, n)
		for i := range coords {
			coords[i] = mdm.Coordinate{int32(n - 1 - i)}
		}
		return fill(s, g, []string{"m"}, coords, randomVals(rand.New(rand.NewSource(1)), n, 1), true)
	}
	c := build()
	c.c.SortByCoordinate()
	c.r.SortByCoordinate()
	same(t, "before growth", c.c, nil, c.r, nil)

	for _, n := range []string{"a", "p", "z", "e"} {
		h.MustAddMember(n)
	}
	c = build()
	c.c.SortByCoordinate()
	c.r.SortByCoordinate()
	same(t, "after growth", c.c, nil, c.r, nil)
	if first := s.Dict(g[0]).Name(c.c.Coords[0][0]); first != "a" {
		t.Fatalf("first cell after growth is %q, want the new member a", first)
	}
	// A cube indexed before the growth does not find the new member, and
	// still takes it cell by cell.
	old := fill(s, g, []string{"m"}, []mdm.Coordinate{{0}}, [][]float64{{1}}, true)
	if err := old.c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	late := h.MustAddMember("q")
	if _, ok := old.c.Lookup(mdm.Coordinate{late}); ok {
		t.Fatal("found a member added after the index was built")
	}
	if err := old.c.AddCell(mdm.Coordinate{late}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if at, ok := old.c.Lookup(mdm.Coordinate{late}); !ok || at != 1 {
		t.Fatalf("Lookup of the late cell = %d, %v", at, ok)
	}
	if at, ok := old.c.Lookup(mdm.Coordinate{0}); !ok || at != 0 {
		t.Fatalf("Lookup of the early cell = %d, %v", at, ok)
	}
}

// TestDuplicateCoordinates: AddCell rejects a coordinate it already
// holds; a bulk-built cube is not checked until it is indexed, and then
// says so.
func TestDuplicateCoordinates(t *testing.T) {
	_, g, c, _ := fixture(t)
	if err := c.AddCell(c.Coords[1], []float64{1}); err == nil {
		t.Fatal("AddCell accepted a duplicate coordinate")
	}
	if err := c.AddCell(mdm.Coordinate{0}, []float64{1}); err == nil {
		t.Fatal("AddCell accepted a coordinate of the wrong arity")
	}
	ids := []int32{0, 0, 1, 0, 0, 0}
	bulk, err := Build(c.Schema, g, []string{"q"}, Carve(ids, 3, 2), [][]float64{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BuildIndex(); err == nil {
		t.Fatal("indexing did not report the duplicate coordinate")
	}
	if at, ok := bulk.Lookup(mdm.Coordinate{0, 0}); !ok || at != 0 {
		t.Fatalf("Lookup of a duplicated coordinate = %d, %v; want the first cell", at, ok)
	}
	if err := bulk.AddCell(mdm.Coordinate{2, 0}, []float64{4}); err == nil {
		t.Fatal("AddCell extended a cube that holds a coordinate twice")
	}
	// Operators that probe the cube's index refuse it too.
	if _, err := Pivot(bulk, g[0], 0, nil, false, nil); err == nil {
		t.Fatal("Pivot accepted a cube with a duplicate coordinate")
	}
	if _, err := RollupJoin(c, bulk, "b.", false); err == nil {
		t.Fatal("RollupJoin accepted a benchmark with a duplicate coordinate")
	}
	if _, err := Build(c.Schema, g, []string{"q"}, Carve(ids, 3, 2), [][]float64{{1, 2}}); err == nil {
		t.Fatal("Build accepted a short column")
	}
}

// TestSharedCubeConcurrentLookup has eight goroutines index and read one
// bulk-built cube at once, as requests sharing a cached result or a view
// cube do; run under -race.
func TestSharedCubeConcurrentLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSchema(rng, 3, 8)
	g := mdm.GroupBy{{Hier: 0}, {Hier: 1}, {Hier: 2}}
	coords := randomCoords(rng, s, g, 0.9, nil)
	c := fill(s, g, []string{"m"}, coords, randomVals(rng, len(coords), 1), true).c
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (k*7 + w) % c.Len()
				at, ok := c.Lookup(c.Coords[i])
				if !ok || at != i {
					t.Errorf("worker %d: Lookup(%v) = %d, %v; the cell is at %d", w, c.Coords[i], at, ok, i)
					return
				}
			}
			if err := c.BuildIndex(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}
