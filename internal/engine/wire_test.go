package engine

import (
	"encoding/hex"
	"fmt"
	"math"
	"slices"
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

// roundTrip moves c through the row codec.
func roundTrip(c *cube.Cube) (*cube.Cube, error) {
	return DecodeRows(c.Schema, c.Group, c.Names, AppendRows(nil, c))
}

func TestWireRoundTripExact(t *testing.T) {
	c := wireFixture(t)
	out, err := roundTrip(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != c.Len() || len(out.Names) != len(c.Names) {
		t.Fatalf("shape changed: %d/%d cells, %v names", out.Len(), c.Len(), out.Names)
	}
	for i := range c.Len() {
		coord := c.Coord(i)
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
	out, err := roundTrip(empty)
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

// TestWireGoldenRows pins the row bytes of AppendRows — member ids as
// little-endian int32, then measure bits as little-endian float64, cell
// after cell — which shard replies carry and a frozen client decodes, and
// requires DecodeRows to read them back to the same cube. The cells cover
// a NaN, an infinity, a negative zero and a member id at the top of a
// dictionary of 300; a grand total has cells but no key column; a cube of
// no levels and no measures writes no bytes, which decode to no cells.
func TestWireGoldenRows(t *testing.T) {
	a := mdm.NewHierarchy("A", "a")
	for i := range 300 {
		a.MustAddMember(fmt.Sprintf("a%03d", i))
	}
	b := mdm.NewHierarchy("B", "b")
	b.MustAddMember("x")
	b.MustAddMember("y")
	s := mdm.NewSchema("T", []*mdm.Hierarchy{a, b},
		[]mdm.Measure{{Name: "m", Op: mdm.AggSum}, {Name: "n", Op: mdm.AggSum}})
	cells := cube.New(s, mdm.MustGroupBy(s, "a", "b"), "m", "n")
	cells.MustAddCell(mdm.Coordinate{0, 1}, 1.5, math.NaN())
	cells.MustAddCell(mdm.Coordinate{299, 0}, -2.25, math.Inf(1))
	cells.MustAddCell(mdm.Coordinate{1, 1}, 0, math.Copysign(0, -1))
	total := cube.New(s, nil, "m")
	total.MustAddCell(nil, 42)
	empty := cube.New(s, nil)
	empty.MustAddCell(nil)
	for _, tc := range []struct {
		name  string
		c     *cube.Cube
		hex   string
		cells int // decoded
	}{
		{"two levels, two measures", cells, "00000000" + "01000000" + "000000000000f83f" + "010000000000f87f" +
			"2b010000" + "00000000" + "00000000000002c0" + "000000000000f07f" +
			"01000000" + "01000000" + "0000000000000000" + "0000000000000080", 3},
		{"grand total", total, "0000000000004540", 1},
		{"zero width", empty, "", 0},
	} {
		buf := AppendRows(nil, tc.c)
		if got := hex.EncodeToString(buf); got != tc.hex {
			t.Errorf("%s: rows\n %s\nwant\n %s", tc.name, got, tc.hex)
			continue
		}
		out, err := DecodeRows(s, tc.c.Group, tc.c.Names, buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Len() != tc.cells || len(out.Keys) != len(tc.c.Keys) {
			t.Fatalf("%s: decoded %d cells of %d levels, want %d of %d", tc.name, out.Len(), len(out.Keys), tc.cells, len(tc.c.Keys))
		}
		for i := range out.Len() {
			if !slices.Equal(out.Coord(i), tc.c.Coord(i)) {
				t.Errorf("%s: cell %d decoded at %v, want %v", tc.name, i, out.Coord(i), tc.c.Coord(i))
			}
			for j := range out.Cols {
				if math.Float64bits(out.Cols[j][i]) != math.Float64bits(tc.c.Cols[j][i]) {
					t.Errorf("%s: cell %d measure %d decoded as %v, want the bits of %v", tc.name, i, j, out.Cols[j][i], tc.c.Cols[j][i])
				}
			}
		}
	}
}
