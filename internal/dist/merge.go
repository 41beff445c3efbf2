// Cross-shard partial merge: the coordinator-side half of the
// distributive/algebraic decomposition in dist.go. Shard partials are
// folded pairwise in log-depth rounds — the same shape as the engine's
// in-process merge tree (engine/kernel.go) — and finalized into the
// cube the engine's own solo scan would have produced.
package dist

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
)

// partialTable is one shard's partial, or the merge of several: columns
// whose cells stand in ascending order of the group-by's composite key
// (mdm.KeySpace), which is ascending coordinate-id order. Two tables
// merge in one pass over both, and the merged table is already in the
// order finalize emits.
type partialTable struct {
	// keys holds each cell's composite key; nil when the key space is
	// wider than 64 bits, where cells compare member id by member id.
	keys   []uint64
	coords []mdm.Coordinate
	cols   [][]float64
}

// compare orders cell i of t against cell j of u.
func (t *partialTable) compare(i int, u *partialTable, j int) int {
	if t.keys != nil {
		return cmp.Compare(t.keys[i], u.keys[j])
	}
	return slices.Compare(t.coords[i], u.coords[j])
}

// tableFrom puts one shard's decoded partial cube in key order. A partial
// that arrives in order — parallel dense scans emit that way — is used
// as it is, without a copy.
func tableFrom(c *cube.Cube, space *mdm.KeySpace) (*partialTable, error) {
	t := &partialTable{coords: c.Coords, cols: c.Cols}
	if !space.Wide() {
		t.keys = make([]uint64, c.Len())
		for i, coord := range c.Coords {
			k, ok := space.Key(coord, nil)
			if !ok {
				return nil, fmt.Errorf("dist: shard cell %v lies outside the coordinator's dictionaries", coord)
			}
			t.keys[i] = k
		}
	}
	sorted := true
	for i := 1; i < c.Len() && sorted; i++ {
		sorted = t.compare(i-1, t, i) <= 0
	}
	if sorted {
		return t, nil
	}
	order := make([]int32, c.Len())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return t.compare(int(a), t, int(b)) })
	s := &partialTable{coords: make([]mdm.Coordinate, len(order)), cols: make([][]float64, len(t.cols))}
	if t.keys != nil {
		s.keys = make([]uint64, len(order))
	}
	for j := range s.cols {
		s.cols[j] = make([]float64, len(order))
	}
	for dst, src := range order {
		if t.keys != nil {
			s.keys[dst] = t.keys[src]
		}
		s.coords[dst] = t.coords[src]
		for j := range s.cols {
			s.cols[j][dst] = t.cols[j][src]
		}
	}
	return s, nil
}

// mergeInto folds src into dst with the plan's per-column combine ops and
// returns the merged table (the inputs are left as they were): one pass
// over both tables pairs up equal keys, then each column is combined on
// its own.
func (p *partialPlan) mergeInto(dst, src *partialTable) *partialTable {
	if len(src.coords) == 0 {
		return dst
	}
	if len(dst.coords) == 0 {
		return src
	}
	// Cell k of the result draws from dst cell from[k][0] and src cell
	// from[k][1]; -1 where a side has no such coordinate.
	from := make([][2]int32, 0, len(dst.coords)+len(src.coords))
	for i, j := 0, 0; i < len(dst.coords) || j < len(src.coords); {
		switch {
		case j == len(src.coords):
			from = append(from, [2]int32{int32(i), -1})
			i++
		case i == len(dst.coords):
			from = append(from, [2]int32{-1, int32(j)})
			j++
		default:
			switch d := dst.compare(i, src, j); {
			case d < 0:
				from = append(from, [2]int32{int32(i), -1})
				i++
			case d > 0:
				from = append(from, [2]int32{-1, int32(j)})
				j++
			default:
				from = append(from, [2]int32{int32(i), int32(j)})
				i++
				j++
			}
		}
	}
	out := &partialTable{coords: make([]mdm.Coordinate, len(from)), cols: make([][]float64, len(dst.cols))}
	if dst.keys != nil {
		out.keys = make([]uint64, len(from))
	}
	for k, f := range from {
		if f[0] >= 0 {
			out.coords[k] = dst.coords[f[0]]
			if out.keys != nil {
				out.keys[k] = dst.keys[f[0]]
			}
		} else {
			out.coords[k] = src.coords[f[1]]
			if out.keys != nil {
				out.keys[k] = src.keys[f[1]]
			}
		}
	}
	for c, op := range p.merge {
		d, s := dst.cols[c], src.cols[c]
		col := make([]float64, len(from))
		for k, f := range from {
			switch {
			case f[1] < 0:
				col[k] = d[f[0]]
			case f[0] < 0:
				col[k] = s[f[1]]
			case op == mdm.AggMin:
				col[k] = d[f[0]]
				if s[f[1]] < col[k] {
					col[k] = s[f[1]]
				}
			case op == mdm.AggMax:
				col[k] = d[f[0]]
				if s[f[1]] > col[k] {
					col[k] = s[f[1]]
				}
			default: // AggSum
				col[k] = d[f[0]] + s[f[1]]
			}
		}
		out.cols[c] = col
	}
	return out
}

// mergeTree folds shard partials pairwise in ceil(log2(n)) concurrent
// rounds, mirroring the engine's in-process merge tree. Distributive
// combines are associative and commutative, so tree shape does not
// change the result.
func (p *partialPlan) mergeTree(parts []*partialTable) *partialTable {
	if len(parts) == 0 {
		return &partialTable{cols: make([][]float64, len(p.merge))}
	}
	for len(parts) > 1 {
		half := (len(parts) + 1) / 2
		var wg sync.WaitGroup
		for i := 0; i+half < len(parts); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i] = p.mergeInto(parts[i], parts[i+half])
			}(i)
		}
		wg.Wait()
		parts = parts[:half]
	}
	return parts[0]
}

// finalize turns the merged partial table into the requested cube:
// AVG cells divide sum by count, COUNT cells surface the count, and
// everything else passes through. Cells are emitted in the table's
// order, ascending coordinate ids — the same canonical order the
// engine's partitioned scans produce, which exec's canonicalization and
// the query layer's SortByCoordinate both accept.
func (p *partialPlan) finalize(s *mdm.Schema, g mdm.GroupBy, names []string, t *partialTable) (*cube.Cube, error) {
	cols := make([][]float64, len(p.out))
	for j, from := range p.out {
		cols[j] = t.cols[from[0]]
		if p.finalOps[j] == mdm.AggAvg {
			sum, cnt := t.cols[from[0]], t.cols[from[1]]
			cols[j] = make([]float64, len(sum))
			for i := range sum {
				cols[j][i] = sum[i] / cnt[i]
			}
		}
	}
	return cube.Build(s, g, names, t.coords, cols)
}
