package exec

import (
	"fmt"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/semantic"
)

// applyLabeler runs the bound labeling function over the comparison
// column. Plain labeling applies it to all cells at once; with a within
// clause (coordinate-dependent labeling, the paper's Section 8 future
// work) the labeler runs independently inside each slice of the within
// level, so distribution-based labelers like quartiles adapt to each
// slice's own value distribution.
func applyLabeler(b *semantic.Bound, c *cube.Cube, col []float64) ([]string, error) {
	if b.Within == nil {
		return b.Labeler.Apply(col), nil
	}
	pos := c.Group.Pos(b.Within.Hier)
	if pos < 0 || c.Group[pos].Level > b.Within.Level {
		return nil, fmt.Errorf("within level not derivable from the result's group-by")
	}
	up := c.Schema.Hiers[b.Within.Hier].LevelMap(c.Group[pos].Level, b.Within.Level)
	groups := make(map[int32][]int)
	for i, id := range c.Keys[pos] {
		groups[up[id]] = append(groups[up[id]], i)
	}
	out := make([]string, len(col))
	vals := make([]float64, 0, 64)
	for _, idx := range groups {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, col[i])
		}
		labels := b.Labeler.Apply(vals)
		for k, i := range idx {
			out[i] = labels[k]
		}
	}
	return out, nil
}
