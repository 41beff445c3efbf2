package testutil

import "github.com/assess-olap/assess/internal/labeling"

// LabelColumn codes labels, one per cell, as a label column whose names
// are the distinct labels in order of first use.
func LabelColumn(labels ...string) labeling.Column {
	col := labeling.Column{Codes: make([]uint8, len(labels))}
	codes := make(map[string]uint8)
	for i, l := range labels {
		code, ok := codes[l]
		if !ok {
			code = uint8(len(col.Names))
			codes[l] = code
			col.Names = append(col.Names, l)
		}
		col.Codes[i] = code
	}
	return col
}

// LabelText is a label column's names, one per cell, or nil for none.
func LabelText(c *labeling.Column) []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.Codes))
	for i := range out {
		out[i] = c.Name(i)
	}
	return out
}
