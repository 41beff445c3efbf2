package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// The cross-shard merge as it was before it went columnar — a
// map[string]*refCell per shard folded pairwise, then a pointer sort —
// kept as the reference the key-ordered merge is compared with.

type refCell struct {
	coord mdm.Coordinate
	vals  []float64
}

type refTable struct{ cells map[string]*refCell }

func refTableFrom(c *cube.Cube) *refTable {
	t := &refTable{cells: make(map[string]*refCell, c.Len())}
	for i, coord := range c.Coords {
		vals := make([]float64, len(c.Cols))
		for j := range c.Cols {
			vals[j] = c.Cols[j][i]
		}
		t.cells[coord.Key()] = &refCell{coord: coord, vals: vals}
	}
	return t
}

func (p *partialPlan) refMergeInto(dst, src *refTable) {
	for key, sc := range src.cells {
		dc, ok := dst.cells[key]
		if !ok {
			dst.cells[key] = sc
			continue
		}
		for j, op := range p.merge {
			switch op {
			case mdm.AggMin:
				if sc.vals[j] < dc.vals[j] {
					dc.vals[j] = sc.vals[j]
				}
			case mdm.AggMax:
				if sc.vals[j] > dc.vals[j] {
					dc.vals[j] = sc.vals[j]
				}
			default: // AggSum
				dc.vals[j] += sc.vals[j]
			}
		}
	}
}

// refMerge folds the partials in the tree shape of mergeTree and
// finalizes them in ascending coordinate-id order.
func (p *partialPlan) refMerge(s *mdm.Schema, g mdm.GroupBy, names []string, parts []*refTable) *cube.Cube {
	if len(parts) == 0 {
		parts = []*refTable{{cells: map[string]*refCell{}}}
	}
	for len(parts) > 1 {
		half := (len(parts) + 1) / 2
		for i := 0; i+half < len(parts); i++ {
			p.refMergeInto(parts[i], parts[i+half])
		}
		parts = parts[:half]
	}
	cells := make([]*refCell, 0, len(parts[0].cells))
	for _, c := range parts[0].cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(a, b int) bool { return slices.Compare(cells[a].coord, cells[b].coord) < 0 })
	out := cube.New(s, g, names...)
	vals := make([]float64, len(p.out))
	for _, c := range cells {
		for j, cols := range p.out {
			switch p.finalOps[j] {
			case mdm.AggAvg:
				vals[j] = c.vals[cols[0]] / c.vals[cols[1]]
			default:
				vals[j] = c.vals[cols[0]]
			}
		}
		out.MustAddCell(c.coord, vals...)
	}
	return out
}

// shardPartial makes one shard's partial cube for the plan: a random
// subset of the pool's coordinates in random or key order, with values a
// shard scan could have produced (non-negative integer counts, floats
// elsewhere).
func shardPartial(rng *rand.Rand, s *mdm.Schema, g mdm.GroupBy, p *partialPlan, pool []mdm.Coordinate, share float64, ordered bool) *cube.Cube {
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
	ids := make([]int32, 0, len(coords)*len(g))
	cols := make([][]float64, len(p.names))
	for j := range cols {
		cols[j] = make([]float64, len(coords))
	}
	for i, coord := range coords {
		ids = append(ids, coord...)
		for j, op := range p.ops {
			if op == mdm.AggCount {
				cols[j][i] = float64(1 + rng.Intn(9))
			} else {
				cols[j][i] = math.Round(rng.NormFloat64()*1e4) / 16
			}
		}
	}
	c, err := cube.Build(s, g, p.names, cube.Carve(ids, len(coords), len(g)), cols)
	if err != nil {
		panic(err)
	}
	return c
}

func mergeBoth(t *testing.T, what string, s *mdm.Schema, g mdm.GroupBy, plan *partialPlan, names []string, partials []*cube.Cube) {
	t.Helper()
	space := s.KeySpace(g)
	parts := make([]*partialTable, len(partials))
	refs := make([]*refTable, len(partials))
	for i, c := range partials {
		var err error
		if parts[i], err = tableFrom(c, space); err != nil {
			t.Fatal(err)
		}
		refs[i] = refTableFrom(c)
	}
	got, err := plan.finalize(s, g, names, plan.mergeTree(parts))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.refMerge(s, g, names, refs)
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, reference %d", what, got.Len(), want.Len())
	}
	for i := range want.Coords {
		if !slices.Equal(got.Coords[i], want.Coords[i]) {
			t.Fatalf("%s: cell %d is %v, reference %v", what, i, got.Coords[i], want.Coords[i])
		}
		for j := range want.Cols {
			if math.Float64bits(got.Cols[j][i]) != math.Float64bits(want.Cols[j][i]) {
				t.Fatalf("%s: cell %v %s = %v, reference %v", what, want.Coords[i], names[j], got.Cols[j][i], want.Cols[j][i])
			}
		}
	}
}

// TestMergeMatchesReference merges uneven, overlapping and empty shard
// partials for every operator and compares the finalized cube with the
// reference, bit for bit and in the same order.
func TestMergeMatchesReference(t *testing.T) {
	ds := sales.Generate(10, 1)
	s := ds.Schema
	ops := []mdm.AggOp{mdm.AggSum, mdm.AggMin, mdm.AggMax, mdm.AggAvg, mdm.AggCount}
	measures := []int{0, 1, 2, 0, 1}
	names := []string{"sum", "min", "max", "avg", "count"}
	plan := decompose(measures, ops)
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
		partials := make([]*cube.Cube, rng.Intn(6)) // 0 to 5 shards answered
		for i := range partials {
			share := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)] // empty, sparse, overlapping, full
			partials[i] = shardPartial(rng, s, g, plan, pool, share, rng.Intn(2) == 0)
		}
		mergeBoth(t, fmt.Sprint("seed ", seed), s, g, plan, names, partials)
	}
}

// TestMergeWideKeySpace merges over a group-by whose key space overflows
// 64 bits, where cells compare member id by member id.
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
	plan := decompose([]int{0, 0}, []mdm.AggOp{mdm.AggAvg, mdm.AggMax})
	partials := make([]*cube.Cube, 3)
	for i := range partials {
		partials[i] = shardPartial(rng, s, g, plan, pool, 0.6, i == 0)
	}
	mergeBoth(t, "wide", s, g, plan, []string{"avg", "max"}, partials)
}

// TestTableFromRejectsForeignIds: a shard cell whose member id the
// coordinator's dictionaries do not hold is an error, not a wrong cell.
func TestTableFromRejectsForeignIds(t *testing.T) {
	ds := sales.Generate(10, 1)
	g := mdm.GroupBy{{Hier: 3, Level: 2}}
	n := int32(ds.Schema.Dict(g[0]).Len())
	c, err := cube.Build(ds.Schema, g, []string{"p0"}, cube.Carve([]int32{0, n}, 2, 1), [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tableFrom(c, ds.Schema.KeySpace(g)); err == nil {
		t.Fatal("out-of-dictionary member id accepted")
	}
}
