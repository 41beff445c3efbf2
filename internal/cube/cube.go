// Package cube implements derived cubes (Definition 2.6) and the logical
// operators of Section 4.2 that manipulate them at the client layer: the
// natural join ⋈, the partial join ⋈_{l1..lm}, the left-outer join used by
// the assess* variant, and the pivot ⊞. Cubes respect the closure
// property: every operator takes cubes and produces cubes.
package cube

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/assess-olap/assess/internal/mdm"
)

// Cube is a derived cube: a sparse partial function from the coordinates
// of a group-by set to tuples of measure values, stored column-wise.
// Derived (transformed, compared) measures are appended as extra columns;
// the label column, being categorical, is kept separately in Labels.
//
// Assembly is columnar: producers hand Build whole columns, coordinates
// are windows into one []int32 arena (Carve), and nothing is indexed until
// the first Lookup asks for a cell by coordinate (index.go). A cube that
// is only transformed, labelled, sorted and encoded never builds an index.
type Cube struct {
	Schema *mdm.Schema
	Group  mdm.GroupBy
	Names  []string // measure column names, e.g. "quantity", "benchmark.quantity", "diff"
	Coords []mdm.Coordinate
	Cols   [][]float64 // Cols[j][i] = value of measure j in cell i
	Labels []string    // optional, len == len(Coords) when present

	idx   *index  // coordinate → cell position, built on first use
	arena []int32 // tail of the chunk AddCell carves coordinates from
}

// New creates an empty derived cube with the given measure columns, to be
// filled cell by cell with AddCell.
func New(s *mdm.Schema, g mdm.GroupBy, names ...string) *Cube {
	return &Cube{
		Schema: s,
		Group:  g,
		Names:  append([]string(nil), names...),
		Cols:   make([][]float64, len(names)),
		idx:    new(index),
	}
}

// Build is the bulk builder: it constructs a cube from whole coordinate
// and measure columns, taking ownership of them (no copies) and building
// no index. Every column must have one value per coordinate. Coordinates
// are trusted to be unique, as every engine kernel and cube operator
// produces them; BuildIndex checks it for cubes of other provenance.
func Build(s *mdm.Schema, g mdm.GroupBy, names []string, coords []mdm.Coordinate, cols [][]float64) (*Cube, error) {
	if len(cols) != len(names) {
		return nil, fmt.Errorf("cube: %d columns for %d measure names", len(cols), len(names))
	}
	for j := range cols {
		if len(cols[j]) != len(coords) {
			return nil, fmt.Errorf("cube: column %s has %d values for %d cells", names[j], len(cols[j]), len(coords))
		}
	}
	return &Cube{
		Schema: s,
		Group:  g,
		Names:  append([]string(nil), names...),
		Coords: coords,
		Cols:   cols,
		idx:    new(index),
	}, nil
}

// Carve cuts n coordinates of the given width out of one arena of member
// ids laid out cell by cell, so a result's coordinates cost two
// allocations, not one per cell. The coordinates alias ids.
func Carve(ids []int32, n, width int) []mdm.Coordinate {
	coords := make([]mdm.Coordinate, n)
	for i := range coords {
		coords[i] = ids[i*width : (i+1)*width : (i+1)*width]
	}
	return coords
}

// Len returns the number of cells, |C|.
func (c *Cube) Len() int { return len(c.Coords) }

// MeasureIndex returns the column position of the named measure.
func (c *Cube) MeasureIndex(name string) (int, bool) {
	for j, n := range c.Names {
		if n == name {
			return j, true
		}
	}
	return 0, false
}

// AddCell appends one cell, copying coord and vals. It is the checked,
// one-cell-at-a-time entry for hand-built cubes: coordinates must be
// unique (which indexes the cube) and vals must have one value per
// measure column. Result-sized producers use Build.
func (c *Cube) AddCell(coord mdm.Coordinate, vals []float64) error {
	if len(vals) != len(c.Cols) {
		return fmt.Errorf("cube: cell has %d values, cube has %d measures", len(vals), len(c.Cols))
	}
	if len(coord) != len(c.Group) {
		return fmt.Errorf("cube: coordinate has %d members, group-by set has %d levels", len(coord), len(c.Group))
	}
	if err := c.BuildIndex(); err != nil {
		return err
	}
	if !c.idx.tab.insert(coord, len(c.Coords), c.Coords) {
		return fmt.Errorf("cube: duplicate coordinate %s", coord.Format(c.Schema, c.Group))
	}
	if cap(c.arena)-len(c.arena) < len(coord) {
		// A fresh chunk, not a reallocation: earlier cells keep theirs.
		c.arena = make([]int32, 0, max(2*cap(c.arena), 64*len(coord)))
	}
	at := len(c.arena)
	c.arena = append(c.arena, coord...)
	c.Coords = append(c.Coords, c.arena[at:len(c.arena):len(c.arena)])
	for j, v := range vals {
		c.Cols[j] = append(c.Cols[j], v)
	}
	return nil
}

// MustAddCell is AddCell that panics on error.
func (c *Cube) MustAddCell(coord mdm.Coordinate, vals ...float64) {
	if err := c.AddCell(coord, vals); err != nil {
		panic(err)
	}
}

// Lookup returns the cell position of the coordinate. The first call
// indexes the cube; concurrent callers (cached results and view cubes are
// shared across requests) are safe. Should the cube hold a coordinate
// twice — BuildIndex reports that — the first cell wins.
func (c *Cube) Lookup(coord mdm.Coordinate) (int, bool) {
	return c.index().tab.find(coord, nil)
}

// BuildIndex indexes the cube now rather than on the first Lookup and
// reports a coordinate held by more than one cell.
func (c *Cube) BuildIndex() error {
	if dup := c.index().dup; dup >= 0 {
		return fmt.Errorf("cube: duplicate coordinate %s", c.Coords[dup].Format(c.Schema, c.Group))
	}
	return nil
}

// Column returns the values of measure column j across all cells. The
// slice is shared with the cube.
func (c *Cube) Column(j int) []float64 { return c.Cols[j] }

// AppendMeasure adds a derived measure column (the output of a ⊟ or ⊡
// transformation). col must have one value per cell.
func (c *Cube) AppendMeasure(name string, col []float64) error {
	if len(col) != c.Len() {
		return fmt.Errorf("cube: column %s has %d values for %d cells", name, len(col), c.Len())
	}
	if _, dup := c.MeasureIndex(name); dup {
		return fmt.Errorf("cube: measure %s already exists", name)
	}
	c.Names = append(c.Names, name)
	c.Cols = append(c.Cols, col)
	return nil
}

// SetLabels attaches the label column.
func (c *Cube) SetLabels(labels []string) error {
	if len(labels) != c.Len() {
		return fmt.Errorf("cube: %d labels for %d cells", len(labels), c.Len())
	}
	c.Labels = labels
	return nil
}

// SortByCoordinate orders cells lexicographically by member names, for
// deterministic rendering. Names are compared through the dictionaries'
// rank tables — the composite of a cell's ranks is one uint64 that orders
// like its names — so a cube already in order (the usual case for the
// second sort of a statement) costs one pass and no allocation beyond the
// keys, and one out of order is radix-sorted on integers. Columns are
// permuted into fresh slices: cubes sharing the old ones (Project) are
// unaffected.
func (c *Cube) SortByCoordinate() {
	n := c.Len()
	ranks := make([][]int32, len(c.Group))
	cards := make([]int, len(c.Group))
	for p, ref := range c.Group {
		ranks[p] = c.Schema.Dict(ref).Ranks()
		cards[p] = len(ranks[p])
	}
	var order []int32 // order[dst] = src
	if space := mdm.NewKeySpace(cards); !space.Wide() {
		keys := make([]uint64, n)
		for i, coord := range c.Coords {
			for p, id := range coord {
				keys[i] += uint64(ranks[p][id]) * space.Stride(p)
			}
		}
		if slices.IsSorted(keys) {
			return
		}
		order = radixOrder(keys)
	} else {
		// The rank space overflows 64 bits: compare rank tuples.
		byRanks := func(a, b int32) int {
			ca, cb := c.Coords[a], c.Coords[b]
			for p := range ca {
				if d := int(ranks[p][ca[p]]) - int(ranks[p][cb[p]]); d != 0 {
					return d
				}
			}
			return 0
		}
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		if slices.IsSortedFunc(order, byRanks) {
			return
		}
		slices.SortStableFunc(order, byRanks)
	}
	c.Coords, c.Cols = take(c, order)
	if c.Labels != nil {
		c.Labels = gather(c.Labels, order)
	}
	c.idx = new(index) // positions moved; re-index on demand
	c.arena = nil
}

// radixOrder returns the stable ascending order of keys — order[dst] is
// the position of the dst-th smallest — by least-significant-digit radix
// passes over as many 11-bit digits as the largest key has.
func radixOrder(keys []uint64) []int32 {
	const digit = 11
	order, next := make([]int32, len(keys)), make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	for shift, width := 0, bits.Len64(slices.Max(keys)); shift < width; shift += digit {
		var at [1 << digit]int32 // start of each digit's run in next
		for _, k := range keys {
			at[k>>shift&(1<<digit-1)]++
		}
		sum := int32(0)
		for d, count := range at {
			at[d], sum = sum, sum+count
		}
		for _, i := range order {
			d := keys[i] >> shift & (1<<digit - 1)
			next[at[d]] = i
			at[d]++
		}
		order, next = next, order
	}
	return order
}

// gather returns col permuted or filtered by rows: out[k] = col[rows[k]].
func gather[T any](col []T, rows []int32) []T {
	out := make([]T, len(rows))
	for k, i := range rows {
		out[k] = col[i]
	}
	return out
}

// String renders the cube as a small table, for debugging and examples.
func (c *Cube) String() string {
	var b strings.Builder
	for p := range c.Group {
		fmt.Fprintf(&b, "%s\t", c.Schema.LevelName(c.Group[p]))
	}
	for _, n := range c.Names {
		fmt.Fprintf(&b, "%s\t", n)
	}
	if c.Labels != nil {
		b.WriteString("label")
	}
	b.WriteByte('\n')
	for i, coord := range c.Coords {
		for p, id := range coord {
			fmt.Fprintf(&b, "%s\t", c.Schema.Dict(c.Group[p]).Name(id))
		}
		for j := range c.Cols {
			fmt.Fprintf(&b, "%g\t", c.Cols[j][i])
		}
		if c.Labels != nil {
			b.WriteString(c.Labels[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
