package cube

import (
	"sync"

	"github.com/assess-olap/assess/internal/mdm"
)

// index maps the coordinates of cells to cell positions: a cube's own
// index, built by the first caller that needs it over the current
// cardinalities of the cube's levels (once makes that safe for cubes
// shared across requests), and the probe side of the joins. It is an
// mdm.Slots over the cells' key columns, so slot s is the s-th distinct
// coordinate: cell s, until a cell is left out.
type index struct {
	once  sync.Once
	slots *mdm.Slots
	cell  []int32 // slot → cell once a cell was left out; nil while the slot is the cell
	bad   int     // first cell left out, -1 if none
}

// build indexes n cells on the key columns cols, which align with the
// levels of space. It leaves out a cell whose coordinate an earlier cell
// holds (the earlier cell keeps it) and one with a member id outside
// space.
func (ix *index) build(space *mdm.KeySpace, cols [][]int32, n int) *index {
	ix.slots, ix.cell, ix.bad = mdm.NewSlots(space, n), nil, -1
	next := int32(0)
	for i, s := range ix.slots.Index(cols, n) {
		if s == next {
			next++
			if ix.cell != nil {
				ix.cell = append(ix.cell, int32(i))
			}
		} else if ix.bad < 0 {
			ix.bad, ix.cell = i, positions(int(next))
		}
	}
	return ix
}

// lookup probes the index with n cells given by key columns aligned with
// its levels and returns each one's cell position, -1 where none holds
// the coordinate.
func (ix *index) lookup(cols [][]int32, n int) []int32 {
	at := ix.slots.Find(cols, n)
	if ix.cell != nil {
		for i, s := range at {
			if s >= 0 {
				at[i] = ix.cell[s]
			}
		}
	}
	return at
}

func (c *Cube) index() *index {
	ix := c.idx
	ix.once.Do(func() { ix.build(c.Schema.KeySpace(c.Group), c.Keys, c.n) })
	return ix
}

// one lays a coordinate out as the key columns of one cell.
func one(coord mdm.Coordinate) [][]int32 {
	cols := make([][]int32, len(coord))
	for p := range coord {
		cols[p] = coord[p : p+1]
	}
	return cols
}
