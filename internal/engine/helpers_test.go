package engine

import (
	"testing"

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
