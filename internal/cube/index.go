package cube

import (
	"sync"

	"github.com/assess-olap/assess/internal/mdm"
)

// table maps the composite keys of coordinates (mdm.KeySpace) to cell
// positions: the cube's own index and the probe side of the partial
// join. Keys are uint64s; the byte-string map is the fallback for a key
// space wider than 64 bits, and for a table holding a member id its
// space cannot encode (a hand-built cell outside the dictionary).
type table struct {
	space *mdm.KeySpace
	pos   []int // coordinate positions keyed on; nil = the whole coordinate
	ints  map[uint64]int32
	wide  map[string]int32
}

// newTable indexes coords on the given positions, which align with the
// levels of space. It returns the position of the first cell whose key an
// earlier cell already holds, or -1; the earlier cell keeps the key.
func newTable(space *mdm.KeySpace, pos []int, coords []mdm.Coordinate) (t *table, dup int) {
	t = &table{space: space, pos: pos}
	if space.Wide() {
		t.wide = make(map[string]int32, len(coords))
	} else {
		t.ints = make(map[uint64]int32, len(coords))
	}
	dup = -1
	for i, coord := range coords {
		if !t.insert(coord, i, coords[:i]) && dup < 0 {
			dup = i
		}
	}
	return t, dup
}

// insert maps coord's key to cell i unless a cell already holds it, which
// it reports as false. held are the cells inserted so far, re-keyed as
// byte strings should coord be the first the space cannot encode.
func (t *table) insert(coord mdm.Coordinate, i int, held []mdm.Coordinate) bool {
	if t.ints != nil {
		if k, ok := t.space.Key(coord, t.pos); ok {
			if _, dup := t.ints[k]; dup {
				return false
			}
			t.ints[k] = int32(i)
			return true
		}
		t.wide = make(map[string]int32, len(t.ints)+1)
		for _, at := range t.ints {
			t.wide[mdm.WideKey(held[at], t.pos)] = at
		}
		t.ints = nil
	}
	k := mdm.WideKey(coord, t.pos)
	if _, dup := t.wide[k]; dup {
		return false
	}
	t.wide[k] = int32(i)
	return true
}

// find returns the cell whose key equals that of coord projected on the
// positions at (nil = the whole coordinate).
func (t *table) find(coord mdm.Coordinate, at []int) (int, bool) {
	if t.ints != nil {
		k, ok := t.space.Key(coord, at)
		if !ok {
			return 0, false // every key held is in range
		}
		i, ok := t.ints[k]
		return int(i), ok
	}
	i, ok := t.wide[mdm.WideKey(coord, at)]
	return int(i), ok
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
		ix.tab, ix.dup = newTable(c.Schema.KeySpace(c.Group), nil, c.Coords)
	})
	return ix
}
