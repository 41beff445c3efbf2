package engine

import (
	"context"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// newFact builds a single-hierarchy fact table: row r has key keys[r] and
// measure values vals[r].
func newFact(t *testing.T, s *mdm.Schema, vals [][]float64, keys []int32) *storage.FactTable {
	t.Helper()
	f := storage.NewFactTable(s)
	for r := range vals {
		if err := f.Append([]int32{keys[r]}, vals[r]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// setDenseKeyBudget sets the dense key-space slot budget: a scan whose
// group-by key space has more slots than the budget uses the slot table.
// 0 disables the dense kernels entirely; negative values restore
// defaultDenseKeyBudget.
func (e *Engine) setDenseKeyBudget(slots int) {
	switch {
	case slots > 0:
		e.denseBudget = slots
	case slots == 0:
		e.denseBudget = -1
	default:
		e.denseBudget = 0
	}
}

// The pushed operators of the plans: each pushes its cube operator over
// the queries' aggregates through Engine.Push, so only the result crosses
// the cursor.

func pushJoin(e *Engine, qc, qb Query, on []mdm.LevelRef, alias string, outer bool) (*cube.Cube, error) {
	return e.Push(context.Background(), func(cs ...*cube.Cube) (*cube.Cube, error) {
		return cube.PartialJoin(cs[0], cs[1], on, alias, outer)
	}, qc, qb)
}

func pushPivot(e *Engine, q Query, level mdm.LevelRef, ref int32, neighbors []int32, strict bool, rename func(measure, member string) string) (*cube.Cube, error) {
	return e.Push(context.Background(), func(cs ...*cube.Cube) (*cube.Cube, error) {
		return cube.Pivot(cs[0], level, ref, neighbors, strict, rename)
	}, q)
}

func pushMultiply(e *Engine, qc, qb Query, level mdm.LevelRef, members []int32, alias string, outer bool) (*cube.Cube, error) {
	return e.Push(context.Background(), func(cs ...*cube.Cube) (*cube.Cube, error) {
		return cube.MultiplyJoin(cs[0], cs[1], level, members, alias, outer)
	}, qc, qb)
}

func pushRollupJoin(e *Engine, qc, qb Query, alias string, outer bool) (*cube.Cube, error) {
	return e.Push(context.Background(), func(cs ...*cube.Cube) (*cube.Cube, error) {
		return cube.RollupJoin(cs[0], cs[1], alias, outer)
	}, qc, qb)
}
