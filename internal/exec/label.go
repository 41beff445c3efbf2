package exec

import (
	"fmt"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/semantic"
)

// applyLabeler runs the bound labeling function over the comparison
// column. Plain labeling applies it to all cells at once; with a within
// clause (coordinate-dependent labeling, the paper's Section 8 future
// work) the labeler runs independently inside each slice of the within
// level, so distribution-based labelers like quartiles adapt to each
// slice's own value distribution. The slices' codes are merged into one
// label set: the first slice's, then any name a later slice adds.
func applyLabeler(b *semantic.Bound, c *cube.Cube, col []float64) (labeling.Column, error) {
	if b.Within == nil {
		return b.Labeler.Apply(col), nil
	}
	pos := c.Group.Pos(b.Within.Hier)
	if pos < 0 || c.Group[pos].Level > b.Within.Level {
		return labeling.Column{}, fmt.Errorf("within level not derivable from the result's group-by")
	}
	up := c.Schema.Hiers[b.Within.Hier].LevelMap(c.Group[pos].Level, b.Within.Level)
	slice := make(map[int32]int) // within member → index into groups
	var groups [][]int           // cells of each slice, slices in order of first cell
	for i, id := range c.Keys[pos] {
		g, ok := slice[up[id]]
		if !ok {
			g = len(groups)
			slice[up[id]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	out := labeling.Column{Codes: make([]uint8, len(col))}
	codes := make(map[string]uint8)
	vals := make([]float64, 0, 64)
	for _, idx := range groups {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, col[i])
		}
		labels := b.Labeler.Apply(vals)
		remap := make([]uint8, len(labels.Names))
		for k, name := range labels.Names {
			code, ok := codes[name]
			if !ok {
				if len(out.Names) > labeling.MaxLabels {
					return labeling.Column{}, fmt.Errorf("within slices name more than %d labels", labeling.MaxLabels)
				}
				code = uint8(len(out.Names))
				codes[name] = code
				out.Names = append(out.Names, name)
			}
			remap[k] = code
		}
		for k, i := range idx {
			out.Codes[i] = remap[labels.Codes[k]]
		}
	}
	return out, nil
}
