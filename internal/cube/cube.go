// Package cube implements derived cubes (Definition 2.6) and the logical
// operators of Section 4.2 that manipulate them at the client layer: the
// natural join ⋈, the partial join ⋈_{l1..lm}, the left-outer join used by
// the assess* variant, and the pivot ⊞. Cubes respect the closure
// property: every operator takes cubes and produces cubes.
// A cube's coordinates are grouping columns, one member-id column per
// level (Cube.Keys), in one layout from the engine's kernels to the
// server's encoders; operators pack and probe keys column by column.
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
// Coordinates are grouping columns too (Gray et al.): Keys holds one
// member-id column per position of the group-by set, so cell i sits at
// ⟨Keys[0][i], …, Keys[|G|-1][i]⟩. Derived (transformed, compared)
// measures are appended as extra columns; the label column, being
// categorical, is kept separately in Labels.
//
// Assembly is columnar: producers hand Build whole columns, and nothing is
// indexed until the first Lookup asks for a cell by coordinate (index.go).
// A cube that is only transformed, labelled, sorted and encoded never
// builds an index. No operator writes into a column a cube holds, so
// cubes share columns (Project, a view's exact hits).
type Cube struct {
	Schema *mdm.Schema
	Group  mdm.GroupBy
	Names  []string    // measure column names, e.g. "quantity", "benchmark.quantity", "diff"
	Keys   [][]int32   // Keys[p][i] = member id of cell i at group position p
	Cols   [][]float64 // Cols[j][i] = value of measure j in cell i
	Labels []string    // optional, one per cell when present

	// Coords is nil on every cube but the results of core.Session.Query,
	// which fills it for callers outside the program that still range
	// over it; nothing in the program reads it.
	//
	// Deprecated: use Keys or Coord. ROADMAP.md item 14 deletes it.
	Coords []mdm.Coordinate

	n      int    // cells: a grand total has one and no key column to count
	idx    *index // coordinate → cell position, built on first use
	sorted bool   // SortByCoordinate completed, and no cell was added since
}

// New creates an empty derived cube with the given measure columns, to be
// filled cell by cell with AddCell.
func New(s *mdm.Schema, g mdm.GroupBy, names ...string) *Cube {
	c, _ := Build(s, g, names, 0, make([][]int32, len(g)), make([][]float64, len(names)))
	return c
}

// Build is the bulk builder: it constructs a cube of n cells from whole
// key and measure columns, taking ownership of them (no copies) and
// building no index. There is one key column per group-by level and every
// column holds n values. Coordinates are trusted to be unique, as every
// engine kernel and cube operator produces them; BuildIndex checks it for
// cubes of other provenance.
func Build(s *mdm.Schema, g mdm.GroupBy, names []string, n int, keys [][]int32, cols [][]float64) (*Cube, error) {
	if len(keys) != len(g) {
		return nil, fmt.Errorf("cube: %d key columns for %d levels", len(keys), len(g))
	}
	if len(cols) != len(names) {
		return nil, fmt.Errorf("cube: %d columns for %d measure names", len(cols), len(names))
	}
	for p := range keys {
		if len(keys[p]) != n {
			return nil, fmt.Errorf("cube: key column %d has %d members for %d cells", p, len(keys[p]), n)
		}
	}
	for j := range cols {
		if len(cols[j]) != n {
			return nil, fmt.Errorf("cube: column %s has %d values for %d cells", names[j], len(cols[j]), n)
		}
	}
	return &Cube{
		Schema: s,
		Group:  g,
		Names:  append([]string(nil), names...),
		Keys:   keys,
		Cols:   cols,
		n:      n,
		idx:    new(index),
	}, nil
}

// Len returns the number of cells, |C|.
func (c *Cube) Len() int { return c.n }

// Coord returns a fresh copy of cell i's coordinate.
func (c *Cube) Coord(i int) mdm.Coordinate {
	coord := make(mdm.Coordinate, len(c.Keys))
	for p, col := range c.Keys {
		coord[p] = col[i]
	}
	return coord
}

// MeasureIndex returns the column position of the named measure.
func (c *Cube) MeasureIndex(name string) (int, bool) {
	j := slices.Index(c.Names, name)
	return j, j >= 0
}

// AddCell appends one cell, copying coord and vals. It is the checked,
// one-cell-at-a-time entry for hand-built cubes: member ids must be in
// their levels' dictionaries, coordinates unique (which indexes the cube)
// and vals one value per measure column. Result-sized producers use Build.
func (c *Cube) AddCell(coord mdm.Coordinate, vals []float64) error {
	if len(vals) != len(c.Cols) {
		return fmt.Errorf("cube: cell has %d values, cube has %d measures", len(vals), len(c.Cols))
	}
	if len(coord) != len(c.Group) {
		return fmt.Errorf("cube: coordinate has %d members, group-by set has %d levels", len(coord), len(c.Group))
	}
	if err := c.members(coord); err != nil {
		return err
	}
	if err := c.BuildIndex(); err != nil {
		return err
	}
	if _, dup := c.Lookup(coord); dup {
		return fmt.Errorf("cube: duplicate coordinate %s", coord.Format(c.Schema, c.Group))
	}
	for p, id := range coord {
		c.Keys[p] = append(c.Keys[p], id)
	}
	for j, v := range vals {
		c.Cols[j] = append(c.Cols[j], v)
	}
	c.n++
	c.sorted = false
	// A member added to a dictionary after the index was built lies
	// outside the index's space: index the cube again over the current one.
	if c.idx.slots.Index(one(coord), 1)[0] < 0 {
		c.idx.build(c.Schema.KeySpace(c.Group), c.Keys, c.n)
	}
	return nil
}

// members reports a member id of coord outside its level's dictionary.
func (c *Cube) members(coord mdm.Coordinate) error {
	for p, id := range coord {
		if n := c.Schema.Dict(c.Group[p]).Len(); id < 0 || int(id) >= n {
			return fmt.Errorf("cube: member id %d is outside level %s (%d members)", id, c.Schema.LevelName(c.Group[p]), n)
		}
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
// twice — BuildIndex reports that — the first cell wins. A member id
// outside the indexed space finds nothing.
func (c *Cube) Lookup(coord mdm.Coordinate) (int, bool) {
	if len(coord) != len(c.Keys) {
		return 0, false
	}
	at := c.index().lookup(one(coord), 1)[0]
	return int(at), at >= 0
}

// BuildIndex indexes the cube now rather than on the first Lookup and
// reports a cell it cannot index: one holding a coordinate an earlier cell
// holds, or a member id outside its level's dictionary.
func (c *Cube) BuildIndex() error {
	bad := c.index().bad
	if bad < 0 {
		return nil
	}
	coord := c.Coord(bad)
	if err := c.members(coord); err != nil {
		return err
	}
	return fmt.Errorf("cube: duplicate coordinate %s", coord.Format(c.Schema, c.Group))
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
// like its names, summed column by column — so a cube already in order
// costs one pass and no allocation beyond the keys, and one out of order
// is radix-sorted on integers. Columns are permuted into fresh slices:
// cubes sharing the old ones (Project) are unaffected. The cube remembers
// that it is in order until AddCell appends a cell, so sorting it again
// costs nothing (a statement's label op sorts its result, and the result
// is sorted once more at the end); writing Keys in place does not make it
// forget. A member added to a dictionary keeps the order of the names
// already ranked.
func (c *Cube) SortByCoordinate() {
	if c.sorted {
		return
	}
	c.sorted = true
	if c.n < 2 {
		return
	}
	ranks := make([][]int32, len(c.Group))
	cards := make([]int, len(c.Group))
	for p, ref := range c.Group {
		ranks[p] = c.Schema.Dict(ref).Ranks()
		cards[p] = len(ranks[p])
	}
	var order []int32 // order[dst] = src
	if space := mdm.NewKeySpace(cards); !space.Wide() {
		keys := make([]uint64, c.n)
		for p, col := range c.Keys {
			rank, stride := ranks[p], space.Stride(p)
			for i, id := range col {
				keys[i] += uint64(rank[id]) * stride
			}
		}
		if slices.IsSorted(keys) {
			return
		}
		order = radixOrder(keys, positions(c.n))
	} else {
		// The rank space overflows 64 bits: sort on one level's ranks at
		// a time, the last level first.
		order = positions(c.n)
		for p := len(c.Keys) - 1; p >= 0; p-- {
			keys := make([]uint64, c.n)
			for i, id := range c.Keys[p] {
				keys[i] = uint64(ranks[p][id])
			}
			order = radixOrder(keys, order)
		}
	}
	c.Keys, c.Cols = take(c, order)
	if c.Labels != nil {
		c.Labels = gather(c.Labels, order)
	}
	c.idx = new(index) // positions moved; re-index on demand
}

// radixOrder sorts order, positions into keys, stably by key: after it
// keys[order[0]] ≤ keys[order[1]] ≤ …, ties in their former order. It
// makes least-significant-digit radix passes over as many 11-bit digits
// as the largest key has, reusing order's memory.
func radixOrder(keys []uint64, order []int32) []int32 {
	const digit = 11
	next := make([]int32, len(keys))
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

// positions returns 0, 1, …, n-1.
func positions(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
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
	for i := range c.n {
		for p, col := range c.Keys {
			fmt.Fprintf(&b, "%s\t", c.Schema.Dict(c.Group[p]).Name(col[i]))
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
