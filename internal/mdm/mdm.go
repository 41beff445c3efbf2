// Package mdm implements the multidimensional model of Francia et al.,
// "Assess Queries for Interactive Analysis of Data Cubes" (EDBT 2021),
// Section 2: linear hierarchies with a roll-up total order of levels and a
// part-of partial order of members, cube schemas, group-by sets, and
// coordinates.
package mdm

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// AggOp is the aggregation operator coupled with a measure (Definition 2.1).
type AggOp int

// Supported aggregation operators.
const (
	AggSum AggOp = iota
	AggAvg
	AggMin
	AggMax
	AggCount
)

// Valid reports whether op is one of the supported operators; operators
// arrive as bare integers over the shard RPC.
func (op AggOp) Valid() bool { return op >= AggSum && op <= AggCount }

// String returns the SQL spelling of the operator.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	}
	return fmt.Sprintf("AggOp(%d)", int(op))
}

// Measure is a numerical measure coupled with its aggregation operator.
type Measure struct {
	Name string
	Op   AggOp
}

// Dict is a dictionary encoding of the member domain Dom(l) of one level:
// member names are mapped to dense int32 identifiers in insertion order.
type Dict struct {
	ids   map[string]int32
	names []string
	// ranks caches Ranks(); a table shorter than names predates the
	// dictionary's growth and is rebuilt.
	ranks atomic.Pointer[[]int32]
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Intern returns the identifier of name, inserting it if absent.
func (d *Dict) Intern(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the identifier of name, if present.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the member name for id.
func (d *Dict) Name(id int32) string { return d.names[id] }

// Len returns the number of members in the dictionary, i.e. |Dom(l)|.
func (d *Dict) Len() int { return len(d.names) }

// Names returns all member names in insertion order. The returned slice is
// shared with the dictionary and must not be modified.
func (d *Dict) Names() []string { return d.names }

// Ranks returns the name-rank table of the dictionary: Ranks()[id] is the
// position of member id in byte-wise name order, so comparing ranks is
// comparing names. The table is cached until the dictionary grows, is
// shared, and must not be modified. Like Name, it may be called from
// concurrent readers.
func (d *Dict) Ranks() []int32 {
	if r := d.ranks.Load(); r != nil && len(*r) == len(d.names) {
		return *r
	}
	order := make([]int32, len(d.names))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return d.names[order[a]] < d.names[order[b]] })
	ranks := make([]int32, len(order))
	for pos, id := range order {
		ranks[id] = int32(pos)
	}
	d.ranks.Store(&ranks)
	return ranks
}

// SortedNames returns all member names in lexicographic order.
func (d *Dict) SortedNames() []string {
	out := append([]string(nil), d.names...)
	sort.Strings(out)
	return out
}

// Hierarchy is a linear hierarchy h = (L, ⪰, ≥): a roll-up total order of
// levels (index 0 is the finest, the last index is the coarsest) and a
// part-of partial order linking each member to exactly one member of the
// next coarser level (Definition 2.1).
type Hierarchy struct {
	name   string
	levels []string
	dicts  []*Dict
	// parent[d][id] is the id, at level d+1, of the parent of member id at
	// level d. len(parent) == len(levels)-1.
	parent [][]int32
	// props holds the descriptive properties of levels (properties.go).
	props map[propKey][]float64
	// maps caches LevelMap, one slot per (from, to) pair of levels.
	maps []atomic.Pointer[[]int32]
}

// NewHierarchy creates a hierarchy with the given levels listed from finest
// to coarsest (e.g. "date", "month", "year"). At least one level is
// required.
func NewHierarchy(name string, levels ...string) *Hierarchy {
	if len(levels) == 0 {
		panic("mdm: hierarchy needs at least one level")
	}
	h := &Hierarchy{name: name, levels: append([]string(nil), levels...)}
	h.dicts = make([]*Dict, len(levels))
	for i := range h.dicts {
		h.dicts[i] = NewDict()
	}
	h.parent = make([][]int32, len(levels)-1)
	h.maps = make([]atomic.Pointer[[]int32], len(levels)*len(levels))
	return h
}

// Name returns the hierarchy name.
func (h *Hierarchy) Name() string { return h.name }

// Levels returns the level names from finest to coarsest. The returned
// slice is shared and must not be modified.
func (h *Hierarchy) Levels() []string { return h.levels }

// Depth returns the number of levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// LevelIndex returns the index of the named level (0 = finest).
func (h *Hierarchy) LevelIndex(level string) (int, bool) {
	for i, l := range h.levels {
		if l == level {
			return i, true
		}
	}
	return 0, false
}

// Dict returns the member dictionary of the level at depth d.
func (h *Hierarchy) Dict(d int) *Dict { return h.dicts[d] }

// AddMember registers one full member path from the base level up to the
// top level (e.g. AddMember("Lemon", "Fresh Fruit", "Fruit")). It enforces
// the part-of constraint that every member has exactly one parent: a
// conflicting re-registration is an error. It returns the base-level
// member id.
func (h *Hierarchy) AddMember(path ...string) (int32, error) {
	if len(path) != len(h.levels) {
		return 0, fmt.Errorf("mdm: hierarchy %s expects %d path components, got %d", h.name, len(h.levels), len(path))
	}
	ids := make([]int32, len(path))
	for d, name := range path {
		ids[d] = h.dicts[d].Intern(name)
	}
	for d := 0; d < len(path)-1; d++ {
		p := &h.parent[d]
		for int(ids[d]) >= len(*p) {
			*p = append(*p, -1)
		}
		switch cur := (*p)[ids[d]]; cur {
		case -1:
			(*p)[ids[d]] = ids[d+1]
		case ids[d+1]:
			// consistent re-registration
		default:
			return 0, fmt.Errorf("mdm: member %q of level %s already rolls up to %q, not %q",
				path[d], h.levels[d], h.dicts[d+1].Name(cur), path[d+1])
		}
	}
	return ids[0], nil
}

// MustAddMember is AddMember that panics on error; intended for generators
// and tests.
func (h *Hierarchy) MustAddMember(path ...string) int32 {
	id, err := h.AddMember(path...)
	if err != nil {
		panic(err)
	}
	return id
}

// Rollup maps the member id at level depth `from` to its ancestor at level
// depth `to` following the part-of partial order. from <= to is required
// (roll-up goes from finer to coarser).
func (h *Hierarchy) Rollup(id int32, from, to int) int32 {
	for d := from; d < to; d++ {
		id = h.parent[d][id]
	}
	return id
}

// LevelMap returns the roll-up function between two levels as a table:
// LevelMap(from, to)[id] is the ancestor at level depth `to` of member id at
// level depth `from` (from <= to; from == to is the identity). The table is
// built on first use and rebuilt once the from level's dictionary has
// outgrown it, so a caller sees every member registered before the call.
// It is shared and must not be modified; like Dict.Ranks it may be called
// from concurrent readers. Scans, view roll-ups, zone maps and the shard
// router all read roll-up through it.
func (h *Hierarchy) LevelMap(from, to int) []int32 {
	slot := &h.maps[from*len(h.levels)+to]
	n := h.dicts[from].Len()
	if m := slot.Load(); m != nil && len(*m) == n {
		return *m
	}
	m := make([]int32, n)
	for id := range m {
		m[id] = h.Rollup(int32(id), from, to)
	}
	slot.Store(&m)
	return m
}

// Accept evaluates a selection predicate — level depth `level` ∈ members
// (Definition 2.6) — over the member ids of level depth `at`, and
// intersects it into acc: the accepted ids of level `at` so far, nil
// meaning all of them. acc is updated in place when non-nil and returned.
// With at <= level the answer is exact: id passes when it rolls up to one
// of members. With at > level the ids are coarser than the predicate and
// the answer is its existential projection: id passes when some member
// rolls up to it (what routing a query to the shards that own level-`at`
// members needs). Members outside the level's dictionary match nothing.
// The want-set is a []bool over the dictionary: no map is probed.
func (h *Hierarchy) Accept(acc []bool, at, level int, members []int32) []bool {
	pass := make([]bool, h.dicts[at].Len())
	if at >= level {
		// Each member marks the id it rolls up to (itself when at == level).
		up := h.LevelMap(level, at)
		for _, m := range members {
			if uint(m) < uint(len(up)) {
				pass[up[m]] = true
			}
		}
	} else {
		want := make([]bool, h.dicts[level].Len())
		for _, m := range members {
			if uint(m) < uint(len(want)) {
				want[m] = true
			}
		}
		for id, anc := range h.LevelMap(at, level) {
			pass[id] = want[anc]
		}
	}
	if acc == nil {
		return pass
	}
	for id := range acc {
		acc[id] = acc[id] && pass[id]
	}
	return acc
}

// Validate checks that every registered member has a parent at each coarser
// level (i.e. the part-of order is total on the registered members).
func (h *Hierarchy) Validate() error {
	for d := 0; d < len(h.levels)-1; d++ {
		if len(h.parent[d]) < h.dicts[d].Len() {
			return fmt.Errorf("mdm: hierarchy %s level %s has %d members but only %d parent links",
				h.name, h.levels[d], h.dicts[d].Len(), len(h.parent[d]))
		}
		for id, p := range h.parent[d] {
			if p < 0 {
				return fmt.Errorf("mdm: member %q of level %s.%s has no parent",
					h.dicts[d].Name(int32(id)), h.name, h.levels[d])
			}
		}
	}
	return nil
}

// Schema is a cube schema C = (H, M) (Definition 2.1).
type Schema struct {
	Name     string
	Hiers    []*Hierarchy
	Measures []Measure
}

// NewSchema creates a cube schema.
func NewSchema(name string, hiers []*Hierarchy, measures []Measure) *Schema {
	return &Schema{Name: name, Hiers: hiers, Measures: measures}
}

// HierIndex returns the position of the named hierarchy.
func (s *Schema) HierIndex(name string) (int, bool) {
	for i, h := range s.Hiers {
		if h.name == name {
			return i, true
		}
	}
	return 0, false
}

// MeasureIndex returns the position of the named measure.
func (s *Schema) MeasureIndex(name string) (int, bool) {
	for i, m := range s.Measures {
		if m.Name == name {
			return i, true
		}
	}
	return 0, false
}

// LevelRef identifies one level of a schema: the Hier-th hierarchy at
// depth Level (0 = finest).
type LevelRef struct {
	Hier  int
	Level int
}

// FindLevel resolves a level by name across all hierarchies. Level names
// are assumed unique across the schema (as in the paper's examples); if a
// name occurs in several hierarchies the first match wins and ok reports
// ambiguity via the second result.
func (s *Schema) FindLevel(level string) (ref LevelRef, ok bool) {
	for hi, h := range s.Hiers {
		if d, found := h.LevelIndex(level); found {
			return LevelRef{Hier: hi, Level: d}, true
		}
	}
	return LevelRef{}, false
}

// HasLevel reports whether r names a level of the schema; the accessors
// below index with r unchecked.
func (s *Schema) HasLevel(r LevelRef) bool {
	return r.Hier >= 0 && r.Hier < len(s.Hiers) && r.Level >= 0 && r.Level < s.Hiers[r.Hier].Depth()
}

// LevelName returns the name of the referenced level.
func (s *Schema) LevelName(r LevelRef) string {
	return s.Hiers[r.Hier].levels[r.Level]
}

// Dict returns the member dictionary of the referenced level.
func (s *Schema) Dict(r LevelRef) *Dict {
	return s.Hiers[r.Hier].dicts[r.Level]
}

// Validate checks every hierarchy of the schema.
func (s *Schema) Validate() error {
	for _, h := range s.Hiers {
		if err := h.Validate(); err != nil {
			return err
		}
	}
	return nil
}
