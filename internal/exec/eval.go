package exec

import (
	"fmt"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/semantic"
)

// value is an intermediate evaluation result: either a per-cell column or
// a constant broadcast over all cells.
type value struct {
	col     []float64
	konst   float64
	isConst bool
}

func (v value) at(i int) float64 {
	if v.isConst {
		return v.konst
	}
	return v.col[i]
}

func (v value) column(n int) []float64 {
	if !v.isConst {
		return v.col
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = v.konst
	}
	return col
}

// evalColumn evaluates a bound using-clause expression over the cube,
// returning one value per cell. Cell functions are applied row-at-a-time,
// or in one loop over the columns when they have a column form; holistic
// functions receive whole argument columns (Section 3.2).
func evalColumn(e semantic.Expr, c *cube.Cube) ([]float64, error) {
	v, err := eval(e, c)
	if err != nil {
		return nil, err
	}
	return v.column(c.Len()), nil
}

func eval(e semantic.Expr, c *cube.Cube) (value, error) {
	switch e := e.(type) {
	case *semantic.NumberExpr:
		return value{konst: e.Value, isConst: true}, nil
	case *semantic.ColumnExpr:
		j, ok := c.MeasureIndex(e.Column)
		if !ok {
			return value{}, fmt.Errorf("no column %q in intermediate cube (have %v)", e.Column, c.Names)
		}
		return value{col: c.Column(j)}, nil
	case *semantic.PropertyExpr:
		pos := c.Group.Pos(e.Level.Hier)
		if pos < 0 || c.Group[pos].Level > e.Level.Level {
			return value{}, fmt.Errorf("property %s.%s not derivable from the cube's group-by",
				c.Schema.LevelName(e.Level), e.Name)
		}
		h := c.Schema.Hiers[e.Level.Hier]
		up := h.LevelMap(c.Group[pos].Level, e.Level.Level)
		out := make([]float64, c.Len())
		for i, id := range c.Keys[pos] {
			out[i] = h.PropertyValue(e.Level.Level, e.Name, up[id])
		}
		return value{col: out}, nil
	case *semantic.CallExpr:
		args := make([]value, len(e.Args))
		allConst := true
		for i, a := range e.Args {
			v, err := eval(a, c)
			if err != nil {
				return value{}, err
			}
			args[i] = v
			allConst = allConst && v.isConst
		}
		switch e.Fn.Kind {
		case funcs.Cell:
			buf := make([]float64, len(args))
			if allConst {
				for i, a := range args {
					buf[i] = a.konst
				}
				return value{konst: e.Fn.CellFn(buf), isConst: true}, nil
			}
			out := make([]float64, c.Len())
			if e.Fn.ColFn != nil {
				e.Fn.ColFn(out, args[0].column(len(out)), args[1].column(len(out)))
				return value{col: out}, nil
			}
			for i := range out {
				for j, a := range args {
					buf[j] = a.at(i)
				}
				out[i] = e.Fn.CellFn(buf)
			}
			return value{col: out}, nil
		case funcs.Holistic:
			cols := make([][]float64, len(args))
			for i, a := range args {
				cols[i] = a.column(c.Len())
			}
			return value{col: e.Fn.HolFn(cols)}, nil
		}
		return value{}, fmt.Errorf("function %s has unknown kind", e.Fn.Name)
	}
	return value{}, fmt.Errorf("unsupported expression %T", e)
}
