package mdm

import (
	"fmt"
	"strings"
)

// GroupBy is a group-by set of a cube schema: a tuple of levels, at most
// one per hierarchy (Definition 2.3). The canonical form is sorted by
// hierarchy index; a hierarchy that does not appear is completely
// aggregated ("ALL").
type GroupBy []LevelRef

// NewGroupBy builds a canonical group-by set from level names, resolving
// them against the schema.
func NewGroupBy(s *Schema, levels ...string) (GroupBy, error) {
	g := make(GroupBy, 0, len(levels))
	seen := make(map[int]string, len(levels))
	for _, name := range levels {
		ref, ok := s.FindLevel(name)
		if !ok {
			return nil, fmt.Errorf("mdm: unknown level %q in schema %s", name, s.Name)
		}
		if prev, dup := seen[ref.Hier]; dup {
			return nil, fmt.Errorf("mdm: levels %q and %q belong to the same hierarchy %s",
				prev, name, s.Hiers[ref.Hier].Name())
		}
		seen[ref.Hier] = name
		g = append(g, ref)
	}
	g.normalize()
	return g, nil
}

// MustGroupBy is NewGroupBy that panics on error; intended for tests.
func MustGroupBy(s *Schema, levels ...string) GroupBy {
	g, err := NewGroupBy(s, levels...)
	if err != nil {
		panic(err)
	}
	return g
}

func (g GroupBy) normalize() {
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && g[j].Hier < g[j-1].Hier; j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
}

// Equal reports whether two canonical group-by sets are identical. This is
// the cube-joinability condition of Definition 3.1 (G_C = G_B).
func (g GroupBy) Equal(o GroupBy) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i] != o[i] {
			return false
		}
	}
	return true
}

// Pos returns the position of the level of hierarchy hier within the
// group-by set, or -1 if the hierarchy is completely aggregated.
func (g GroupBy) Pos(hier int) int {
	for i, r := range g {
		if r.Hier == hier {
			return i
		}
	}
	return -1
}

// PosOf returns the position of the exact level ref, or -1.
func (g GroupBy) PosOf(ref LevelRef) int {
	for i, r := range g {
		if r == ref {
			return i
		}
	}
	return -1
}

// Contains reports whether the group-by set includes the exact level.
func (g GroupBy) Contains(ref LevelRef) bool { return g.PosOf(ref) >= 0 }

// Without returns a copy of the group-by set with the given level removed
// (G \ {l}); used by the partial-join and pivot operators.
func (g GroupBy) Without(ref LevelRef) GroupBy {
	out := make(GroupBy, 0, len(g))
	for _, r := range g {
		if r != ref {
			out = append(out, r)
		}
	}
	return out
}

// RollsUpTo reports g ⪰H o: every level of o has a corresponding
// finer-or-equal level of g in the same hierarchy (Definition 2.3). An
// absent hierarchy is the coarsest ("ALL") level, so a hierarchy present
// in o must be present in g at depth ≤ o's depth.
func (g GroupBy) RollsUpTo(o GroupBy) bool {
	for _, ro := range o {
		p := g.Pos(ro.Hier)
		if p < 0 || g[p].Level > ro.Level {
			return false
		}
	}
	return true
}

// String renders the group-by set with level names from the schema.
func (g GroupBy) String(s *Schema) string {
	names := make([]string, len(g))
	for i, r := range g {
		names[i] = s.LevelName(r)
	}
	return "⟨" + strings.Join(names, ", ") + "⟩"
}

// Coordinate is a coordinate of a group-by set: a tuple of member ids, one
// per level, aligned with the canonical order of the GroupBy.
type Coordinate []int32

// Clone returns a copy of the coordinate.
func (c Coordinate) Clone() Coordinate {
	return append(Coordinate(nil), c...)
}

// Rollup computes rup_G'(γ): the coordinate of the coarser group-by set to
// which c rolls up (Definition 2.3). It requires g.RollsUpTo(to).
func (c Coordinate) Rollup(s *Schema, g, to GroupBy) Coordinate {
	out := make(Coordinate, len(to))
	for i, rt := range to {
		p := g.Pos(rt.Hier)
		h := s.Hiers[rt.Hier]
		out[i] = h.Rollup(c[p], g[p].Level, rt.Level)
	}
	return out
}

// Format renders the coordinate with member names, e.g. ⟨Apple, Italy⟩.
func (c Coordinate) Format(s *Schema, g GroupBy) string {
	parts := make([]string, len(c))
	for i, id := range c {
		parts[i] = s.Dict(g[i]).Name(id)
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}
