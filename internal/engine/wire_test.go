package engine

import (
	"math"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

func wireFixture(t *testing.T) *cube.Cube {
	t.Helper()
	h := mdm.NewHierarchy("K", "k")
	for _, n := range []string{"a", "b", "c"} {
		h.MustAddMember(n)
	}
	s := mdm.NewSchema("T", []*mdm.Hierarchy{h},
		[]mdm.Measure{{Name: "m", Op: mdm.AggSum}})
	c := cube.New(s, mdm.MustGroupBy(s, "k"), "m", "extra")
	c.MustAddCell(mdm.Coordinate{0}, 1.5, math.NaN())
	c.MustAddCell(mdm.Coordinate{1}, -2.25, math.Inf(1))
	c.MustAddCell(mdm.Coordinate{2}, 0, -0)
	return c
}

func TestWireRoundTripExact(t *testing.T) {
	c := wireFixture(t)
	out, err := transfer(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != c.Len() || len(out.Names) != len(c.Names) {
		t.Fatalf("shape changed: %d/%d cells, %v names", out.Len(), c.Len(), out.Names)
	}
	for i, coord := range c.Coords {
		oi, ok := out.Lookup(coord)
		if !ok {
			t.Fatalf("coordinate lost")
		}
		for j := range c.Cols {
			a, b := c.Cols[j][i], out.Cols[j][oi]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("cell %d col %d: bits differ (%g vs %g)", i, j, a, b)
			}
		}
	}
}

func TestWireEmptyCube(t *testing.T) {
	c := wireFixture(t)
	empty := cube.New(c.Schema, c.Group, "m")
	out, err := transfer(empty)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty cube grew to %d cells", out.Len())
	}
}

func TestWireRejectsCorruptBuffer(t *testing.T) {
	c := wireFixture(t)
	buf := AppendRows(nil, c)
	if _, err := DecodeRows(c.Schema, c.Group, c.Names, buf[:len(buf)-3]); err == nil {
		t.Error("truncated buffer decoded")
	}
	// Duplicate rows collide on coordinates. Decoding is index-free, so
	// the collision surfaces when the cube is indexed.
	dup := append(append([]byte{}, buf...), buf...)
	out, err := DecodeRows(c.Schema, c.Group, c.Names, dup)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.BuildIndex(); err == nil {
		t.Error("duplicate coordinates indexed")
	}
}
