package cube

import (
	"slices"
	"sync"

	"github.com/assess-olap/assess/internal/mdm"
)

// table maps the composite keys of cells (mdm.KeySpace) to cell
// positions: the cube's own index and the probe side of the joins. Keys
// are packed column by column into uint64s; the byte-string map is the
// fallback for a key space wider than 64 bits, and for a table holding a
// member id its space cannot encode (a hand-built cell outside the
// dictionary).
type table struct {
	space *mdm.KeySpace
	ints  map[uint64]int32
	wide  map[string]int32
}

// newTable indexes n cells on the key columns cols, which align with the
// levels of space. It returns the position of the first cell whose key an
// earlier cell already holds, or -1; the earlier cell keeps the key.
func newTable(space *mdm.KeySpace, cols [][]int32, n int) (t *table, dup int) {
	t, dup = &table{space: space}, -1
	if !space.Wide() {
		keys := space.Keys(cols, n)
		if !slices.Contains(keys, mdm.NoKey) {
			t.ints = make(map[uint64]int32, n)
			for i, k := range keys {
				if _, held := t.ints[k]; !held {
					t.ints[k] = int32(i)
				} else if dup < 0 {
					dup = i
				}
			}
			return t, dup
		}
	}
	t.wide = make(map[string]int32, n)
	coord := make(mdm.Coordinate, len(cols))
	for i := range n {
		k := mdm.WideKey(row(coord, cols, i), nil)
		if _, held := t.wide[k]; !held {
			t.wide[k] = int32(i)
		} else if dup < 0 {
			dup = i
		}
	}
	return t, dup
}

// add keys cell i at coord, the last of the cells in cols, whose key no
// held cell shares. A cell the space cannot encode re-keys the table on
// bytes.
func (t *table) add(coord mdm.Coordinate, i int, cols [][]int32) {
	if t.ints == nil {
		t.wide[mdm.WideKey(coord, nil)] = int32(i)
	} else if k := t.space.Keys(one(coord), 1)[0]; k != mdm.NoKey {
		t.ints[k] = int32(i)
	} else {
		rekeyed, _ := newTable(t.space, cols, i+1)
		*t = *rekeyed
	}
}

// lookup probes the table with n cells given by key columns aligned with
// its levels and returns each one's cell position, -1 where none holds
// the key.
func (t *table) lookup(cols [][]int32, n int) []int32 {
	at := make([]int32, n)
	if t.ints != nil {
		for i, k := range t.space.Keys(cols, n) {
			if c, ok := t.ints[k]; ok { // NoKey is never held
				at[i] = c
			} else {
				at[i] = -1
			}
		}
		return at
	}
	coord := make(mdm.Coordinate, len(cols))
	for i := range at {
		if c, ok := t.wide[mdm.WideKey(row(coord, cols, i), nil)]; ok {
			at[i] = c
		} else {
			at[i] = -1
		}
	}
	return at
}

// row reads cell i's member ids out of the key columns into coord.
func row(coord mdm.Coordinate, cols [][]int32, i int) mdm.Coordinate {
	for p, col := range cols {
		coord[p] = col[i]
	}
	return coord
}

// one lays a coordinate out as the key columns of one cell.
func one(coord mdm.Coordinate) [][]int32 {
	cols := make([][]int32, len(coord))
	for p := range coord {
		cols[p] = coord[p : p+1]
	}
	return cols
}

// index is a cube's coordinate index, built by the first caller that
// needs it. once makes that safe for cubes shared across requests.
type index struct {
	once sync.Once
	tab  *table
	dup  int // first cell repeating an earlier coordinate, -1 if none
}

func (c *Cube) index() *index {
	ix := c.idx
	ix.once.Do(func() {
		ix.tab, ix.dup = newTable(c.Schema.KeySpace(c.Group), c.Keys, c.n)
	})
	return ix
}
