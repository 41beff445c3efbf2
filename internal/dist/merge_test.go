package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

// The cross-shard combine as this package first wrote it — a
// map[string]*refCell folded part by part, then a pointer sort — kept as
// the reference the engine's combine (engine.Combine, which runs the
// shards' replies through its scan) is compared with. It restates the
// layout of the parts on its own: a column per requested measure that is
// not a COUNT, then one row count when some measure is an AVG or a COUNT.

type refCell struct {
	coord mdm.Coordinate
	vals  []float64
}

type refTable struct{ cells map[string]*refCell }

// refMergeInto folds one part into dst, cell by cell in the part's order:
// a new coordinate starts from each column's identity, a coordinate the
// part repeats is folded twice.
func refMergeInto(dst *refTable, colOps []mdm.AggOp, c *cube.Cube) {
	for i := range c.Len() {
		coord := c.Coord(i)
		dc, ok := dst.cells[mdm.WideKey(coord, nil)]
		if !ok {
			dc = &refCell{coord: coord, vals: make([]float64, len(colOps))}
			for j, op := range colOps {
				switch op {
				case mdm.AggMin:
					dc.vals[j] = math.Inf(1)
				case mdm.AggMax:
					dc.vals[j] = math.Inf(-1)
				}
			}
			dst.cells[mdm.WideKey(coord, nil)] = dc
		}
		for j, op := range colOps {
			switch v := c.Cols[j][i]; op {
			case mdm.AggMin:
				dc.vals[j] = math.Min(dc.vals[j], v)
			case mdm.AggMax:
				dc.vals[j] = math.Max(dc.vals[j], v)
			default: // sums and counts add up
				dc.vals[j] += v
			}
		}
	}
}

// refMerge folds the parts in order and reads the requested operators
// back in ascending coordinate-id order.
func refMerge(s *mdm.Schema, g mdm.GroupBy, ops, colOps []mdm.AggOp, names []string, parts []*cube.Cube) *cube.Cube {
	t := &refTable{cells: map[string]*refCell{}}
	for _, c := range parts {
		refMergeInto(t, colOps, c)
	}
	cells := make([]*refCell, 0, len(t.cells))
	for _, c := range t.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(a, b int) bool { return slices.Compare(cells[a].coord, cells[b].coord) < 0 })
	out := cube.New(s, g, names...)
	vals := make([]float64, len(ops))
	cnt := len(colOps) - 1 // the shared row count, when there is one
	for _, c := range cells {
		col := 0
		for j, op := range ops {
			switch op {
			case mdm.AggCount:
				vals[j] = c.vals[cnt]
				continue
			case mdm.AggAvg:
				vals[j] = c.vals[col] / c.vals[cnt]
			default:
				vals[j] = c.vals[col]
			}
			col++
		}
		out.MustAddCell(c.coord, vals...)
	}
	return out
}

// shardPart makes one shard's reply: the given coordinates with values a
// shard scan could have produced (positive integer counts, floats
// elsewhere).
func shardPart(rng *rand.Rand, s *mdm.Schema, g mdm.GroupBy, colOps []mdm.AggOp, coords []mdm.Coordinate) *cube.Cube {
	keys := make([][]int32, len(g))
	for p := range keys {
		keys[p] = make([]int32, len(coords))
	}
	cols := make([][]float64, len(colOps))
	names := make([]string, len(colOps))
	for j := range cols {
		cols[j] = make([]float64, len(coords))
		names[j] = fmt.Sprint("p", j)
	}
	for i, coord := range coords {
		for p, id := range coord {
			keys[p][i] = id
		}
		for j, op := range colOps {
			if op == mdm.AggCount {
				cols[j][i] = float64(1 + rng.Intn(9))
			} else {
				cols[j][i] = math.Round(rng.NormFloat64()*1e4) / 16
			}
		}
	}
	c, err := cube.Build(s, g, names, len(coords), keys, cols)
	if err != nil {
		panic(err)
	}
	return c
}

// draw picks each coordinate of the pool with probability share, in key
// order or shuffled.
func draw(rng *rand.Rand, pool []mdm.Coordinate, share float64, ordered bool) []mdm.Coordinate {
	var coords []mdm.Coordinate
	for _, coord := range pool {
		if rng.Float64() < share {
			coords = append(coords, coord)
		}
	}
	if ordered {
		slices.SortFunc(coords, func(a, b mdm.Coordinate) int { return slices.Compare(a, b) })
	} else {
		rng.Shuffle(len(coords), func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
	}
	return coords
}

// mergeRig is an engine holding an (empty) fact of the schema — Combine
// reads dictionaries, never rows — and one request's layout.
type mergeRig struct {
	eng   *engine.Engine
	s     *mdm.Schema
	meas  []int
	ops   []mdm.AggOp
	names []string
	plan  *engine.Partials
}

func newMergeRig(t *testing.T, s *mdm.Schema, meas []int, ops []mdm.AggOp, names []string) *mergeRig {
	t.Helper()
	eng := engine.New()
	if err := eng.Register("T", storage.NewFactTable(s)); err != nil {
		t.Fatal(err)
	}
	return &mergeRig{eng: eng, s: s, meas: meas, ops: ops, names: names, plan: engine.Decompose(meas, ops)}
}

func (r *mergeRig) combine(g mdm.GroupBy, parts []*cube.Cube) (*cube.Cube, error) {
	return r.eng.Combine(context.Background(), engine.Query{Fact: "T", Group: g, Measures: r.meas}, r.plan, r.names, parts)
}

// mergeBoth combines the parts through the engine and through the
// reference and requires the same cells, in the same order, bit for bit.
func (r *mergeRig) mergeBoth(t *testing.T, what string, g mdm.GroupBy, parts []*cube.Cube) *cube.Cube {
	t.Helper()
	got, err := r.combine(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := refMerge(r.s, g, r.ops, r.plan.Ops, r.names, parts)
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, reference %d", what, got.Len(), want.Len())
	}
	for i := range want.Len() {
		if !slices.Equal(got.Coord(i), want.Coord(i)) {
			t.Fatalf("%s: cell %d is %v, reference %v", what, i, got.Coord(i), want.Coord(i))
		}
		for j := range want.Cols {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
				t.Fatalf("%s: cell %v %s = %v, reference %v", what, want.Coord(i), r.names[j], got.Cols[j][i], want.Cols[j][i])
			}
		}
	}
	return got
}

var (
	allOps      = []mdm.AggOp{mdm.AggSum, mdm.AggMin, mdm.AggMax, mdm.AggAvg, mdm.AggCount}
	allMeasures = []int{0, 1, 2, 0, 1}
	allNames    = []string{"sum", "min", "max", "avg", "count"}
)

// TestMergeMatchesReference combines uneven, overlapping and empty shard
// parts for every operator and compares the result with the reference,
// bit for bit and in the same order.
func TestMergeMatchesReference(t *testing.T) {
	s := sales.Generate(10, 1).Schema
	r := newMergeRig(t, s, allMeasures, allOps, allNames)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := mdm.GroupBy{{Hier: 2, Level: rng.Intn(2)}, {Hier: 3, Level: rng.Intn(3)}}[rng.Intn(2):]
		var pool []mdm.Coordinate
		for k := 0; k < 60; k++ {
			coord := make(mdm.Coordinate, len(g))
			for p, ref := range g {
				coord[p] = int32(rng.Intn(s.Dict(ref).Len()))
			}
			pool = append(pool, coord)
		}
		slices.SortFunc(pool, func(a, b mdm.Coordinate) int { return slices.Compare(a, b) })
		pool = slices.CompactFunc(pool, func(a, b mdm.Coordinate) bool { return slices.Equal(a, b) })
		parts := make([]*cube.Cube, rng.Intn(6)) // 0 to 5 shards answered
		for i := range parts {
			share := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)] // empty, sparse, overlapping, full
			parts[i] = shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, share, rng.Intn(2) == 0))
		}
		r.mergeBoth(t, fmt.Sprint("seed ", seed), g, parts)
	}
}

// TestMergeWideKeySpace combines over a group-by whose key space
// overflows 64 bits, where cells are found by their member ids.
func TestMergeWideKeySpace(t *testing.T) {
	hiers := make([]*mdm.Hierarchy, 7)
	g := make(mdm.GroupBy, len(hiers))
	for h := range hiers {
		hiers[h] = mdm.NewHierarchy(fmt.Sprint("H", h), fmt.Sprint("l", h))
		for i := 0; i < 1024; i++ {
			hiers[h].MustAddMember(fmt.Sprint(i))
		}
		g[h] = mdm.LevelRef{Hier: h}
	}
	s := mdm.NewSchema("W", hiers, []mdm.Measure{{Name: "m", Op: mdm.AggSum}})
	if !s.KeySpace(g).Wide() {
		t.Fatal("fixture's key space fits 64 bits")
	}
	rng := rand.New(rand.NewSource(2))
	var pool []mdm.Coordinate
	for k := 0; k < 80; k++ {
		coord := make(mdm.Coordinate, len(g))
		for p := range coord {
			coord[p] = int32(rng.Intn(1024))
		}
		pool = append(pool, coord)
	}
	r := newMergeRig(t, s, []int{0, 0}, []mdm.AggOp{mdm.AggAvg, mdm.AggMax}, []string{"avg", "max"})
	parts := make([]*cube.Cube, 3)
	for i := range parts {
		parts[i] = shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, 0.6, i == 0))
	}
	r.mergeBoth(t, "wide", g, parts)
}

// TestMergeEdgeShapes: the shapes the seeds above do not pin down.
func TestMergeEdgeShapes(t *testing.T) {
	s := sales.Generate(10, 1).Schema
	r := newMergeRig(t, s, allMeasures, allOps, allNames)
	rng := rand.New(rand.NewSource(3))
	g := mdm.GroupBy{{Hier: 2, Level: 0}, {Hier: 3, Level: 0}}
	var pool []mdm.Coordinate
	for p := 0; p < s.Dict(g[0]).Len(); p++ {
		for c := 0; c < s.Dict(g[1]).Len(); c += 3 {
			pool = append(pool, mdm.Coordinate{int32(p), int32(c)})
		}
	}

	t.Run("one part only", func(t *testing.T) {
		part := shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, 0.5, false))
		if got := r.mergeBoth(t, "one part", g, []*cube.Cube{part}); got.Len() != part.Len() {
			t.Fatalf("%d cells from a part of %d", got.Len(), part.Len())
		}
	})
	t.Run("zero parts", func(t *testing.T) {
		// Every shard routed away: no reply at all, whatever the group-by.
		for _, g := range []mdm.GroupBy{{}, g} {
			if got := r.mergeBoth(t, "zero parts", g, nil); got.Len() != 0 {
				t.Fatalf("%d cells from no part at %v", got.Len(), g)
			}
		}
	})
	t.Run("empty group-by", func(t *testing.T) {
		parts := []*cube.Cube{
			shardPart(rng, s, mdm.GroupBy{}, r.plan.Ops, []mdm.Coordinate{{}}),
			shardPart(rng, s, mdm.GroupBy{}, r.plan.Ops, nil),
			shardPart(rng, s, mdm.GroupBy{}, r.plan.Ops, []mdm.Coordinate{{}}),
		}
		if got := r.mergeBoth(t, "empty group-by", mdm.GroupBy{}, parts); got.Len() != 1 {
			t.Fatalf("%d cells, want the one cell of the empty group-by", got.Len())
		}
	})
	t.Run("a coordinate repeated inside one part", func(t *testing.T) {
		coords := draw(rng, pool, 0.3, false)
		coords = append(coords, coords[0], coords[len(coords)/2], coords[0])
		got := r.mergeBoth(t, "repeated", g, []*cube.Cube{
			shardPart(rng, s, g, r.plan.Ops, coords),
			shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, 0.3, true)),
		})
		if err := got.BuildIndex(); err != nil {
			t.Fatalf("a repeated coordinate was emitted twice: %v", err)
		}
	})
	t.Run("key space past eight slots a cell", func(t *testing.T) {
		// 1024 × 1024 slots fit the dense budget exactly, and 40 cells
		// are not worth zeroing them: the engine's slot-table arm.
		hiers := []*mdm.Hierarchy{mdm.NewHierarchy("A", "a"), mdm.NewHierarchy("B", "b")}
		for _, h := range hiers {
			for i := 0; i < 1024; i++ {
				h.MustAddMember(fmt.Sprint(i))
			}
		}
		s := mdm.NewSchema("S", hiers, []mdm.Measure{{Name: "m", Op: mdm.AggSum}, {Name: "n", Op: mdm.AggSum}, {Name: "o", Op: mdm.AggSum}})
		g := mdm.GroupBy{{Hier: 0}, {Hier: 1}}
		var pool []mdm.Coordinate
		for k := 0; k < 40; k++ {
			pool = append(pool, mdm.Coordinate{int32(rng.Intn(1024)), int32(rng.Intn(1024))})
		}
		r := newMergeRig(t, s, allMeasures, allOps, allNames)
		hash := kernelHashCount()
		r.mergeBoth(t, "sparse", g, []*cube.Cube{
			shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, 0.7, false)),
			shardPart(rng, s, g, r.plan.Ops, draw(rng, pool, 0.7, true)),
		})
		if kernelHashCount() == hash {
			t.Fatal("40 cells over 2^20 slots went through a dense table")
		}
	})
}

// TestMergeRejectsForeignIds: a shard cell whose member id the
// coordinator's dictionaries do not hold is an error, not a wrong cell.
func TestMergeRejectsForeignIds(t *testing.T) {
	s := sales.Generate(10, 1).Schema
	g := mdm.GroupBy{{Hier: 3, Level: 2}}
	n := int32(s.Dict(g[0]).Len())
	r := newMergeRig(t, s, []int{0}, []mdm.AggOp{mdm.AggSum}, []string{"sum"})
	for _, id := range []int32{n, -1} {
		c, err := cube.Build(s, g, []string{"p0"}, 2, [][]int32{{0, id}}, [][]float64{{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.combine(g, []*cube.Cube{c}); err == nil {
			t.Fatalf("member id %d of %d accepted", id, n)
		}
	}
}

// kernelHashCount reads how many engine scans took the slot-table kernel.
func kernelHashCount() int64 {
	return obsv.Default.Counter("assess_engine_kernel_total", "", "mode", "hash").Value()
}
