package storage

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
)

func schema(t *testing.T) *mdm.Schema {
	t.Helper()
	h := mdm.NewHierarchy("K", "k")
	h.MustAddMember("a")
	h.MustAddMember("b")
	return mdm.NewSchema("T", []*mdm.Hierarchy{h}, []mdm.Measure{
		{Name: "m", Op: mdm.AggSum},
	})
}

func TestAppendAndRows(t *testing.T) {
	f := NewFactTable(schema(t))
	if f.Rows() != 0 {
		t.Fatalf("fresh table has %d rows", f.Rows())
	}
	if err := f.Append([]int32{0}, []float64{1.5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]int32{1}, []float64{2.5}); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", f.Rows())
	}
	if f.Keys[0][1] != 1 || f.Meas[0][1] != 2.5 {
		t.Error("columns not populated")
	}
}

func TestAppendValidation(t *testing.T) {
	f := NewFactTable(schema(t))
	if err := f.Append([]int32{0, 1}, []float64{1}); err == nil {
		t.Error("wrong key arity accepted")
	}
	if err := f.Append([]int32{0}, []float64{1, 2}); err == nil {
		t.Error("wrong measure arity accepted")
	}
	if err := f.Append([]int32{99}, []float64{1}); err == nil {
		t.Error("out-of-range key accepted")
	}
	if err := f.Append([]int32{-1}, []float64{1}); err == nil {
		t.Error("negative key accepted")
	}
}

func TestReserve(t *testing.T) {
	f := NewFactTable(schema(t))
	f.MustAppend([]int32{0}, []float64{1})
	f.Reserve(100)
	if cap(f.Keys[0]) < 100 || cap(f.Meas[0]) < 100 {
		t.Error("Reserve did not grow capacity")
	}
	if f.Rows() != 1 || f.Keys[0][0] != 0 || f.Meas[0][0] != 1 {
		t.Error("Reserve lost existing rows")
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend did not panic on invalid row")
		}
	}()
	f := NewFactTable(schema(t))
	f.MustAppend([]int32{99}, []float64{1})
}

func TestAppendBlock(t *testing.T) {
	f := NewFactTable(schema(t))
	f.MustAppend([]int32{1}, []float64{0.5})
	if err := f.AppendBlock(BlockCols{Keys: [][]int32{{0, 1, 0}}, Meas: [][]float64{{1, 2, 3}}, Rows: 3}); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 4 || f.Version() != 4 {
		t.Fatalf("Rows %d, Version %d after a row and a 3-row block, want 4 and 4", f.Rows(), f.Version())
	}
	if !slices.Equal(f.Keys[0], []int32{1, 0, 1, 0}) || !slices.Equal(f.Meas[0], []float64{0.5, 1, 2, 3}) {
		t.Errorf("columns %v %v", f.Keys[0], f.Meas[0])
	}
	if err := f.AppendBlock(BlockCols{Keys: [][]int32{{}}, Meas: [][]float64{{}}}); err != nil || f.Version() != 4 {
		t.Errorf("empty block: err %v, Version %d", err, f.Version())
	}
}

// TestAppendBlockAllOrNothing: a block whose last row holds a key outside
// its dictionary, or whose shape is wrong, appends none of its rows, and
// the error names the bad row.
func TestAppendBlockAllOrNothing(t *testing.T) {
	f := NewFactTable(schema(t))
	f.MustAppend([]int32{0}, []float64{1})
	for _, c := range []struct {
		b    BlockCols
		want string
	}{
		{BlockCols{Keys: [][]int32{{0, 1, 1, 2}}, Meas: [][]float64{{1, 2, 3, 4}}, Rows: 4}, "row 4: key 2 out of range"},
		{BlockCols{Keys: [][]int32{{0, 1, -1}}, Meas: [][]float64{{1, 2, 3}}, Rows: 3}, "row 3: key -1 out of range"},
		{BlockCols{Keys: [][]int32{{0, 1}}, Meas: [][]float64{{1, 2, 3}}, Rows: 3}, "has 2 keys"},
		{BlockCols{Keys: [][]int32{{0}}, Meas: [][]float64{{1}, {2}}, Rows: 1}, "expects 1 measures"},
		{BlockCols{Keys: [][]int32{{0}, {1}}, Meas: [][]float64{{1}}, Rows: 1}, "expects 1 keys"},
	} {
		err := f.AppendBlock(c.b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v, want one naming %q", err, c.want)
		}
		if f.Rows() != 1 || f.Version() != 1 || len(f.Keys[0]) != 1 || len(f.Meas[0]) != 1 {
			t.Fatalf("refused block left Rows %d, Version %d, columns %v %v", f.Rows(), f.Version(), f.Keys[0], f.Meas[0])
		}
	}
}

// TestAppendAllocFree: the one-row append views the caller's row as a
// block on the stack, so with capacity reserved it allocates nothing,
// marks for the result cache included (after the first row allocates
// their columns).
func TestAppendAllocFree(t *testing.T) {
	f := NewFactTable(schema(t))
	f.Reserve(1000)
	f.Watch(mdm.LevelRef{})
	keys, vals := []int32{1}, []float64{2.5}
	if n := testing.AllocsPerRun(500, func() {
		if err := f.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append allocates %v times a row", n)
	}
}

// TestAppendBlockConcurrent: blocks and rows appended from several
// goroutines beside a scanning reader each land whole, and Version ends
// at the row count.
func TestAppendBlockConcurrent(t *testing.T) {
	f := NewFactTable(schema(t))
	block := BlockCols{Keys: [][]int32{{0, 1, 1}}, Meas: [][]float64{{1, 2, 3}}, Rows: 3}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := f.AppendBlock(block); err != nil {
					t.Error(err)
				}
				if err := f.Append([]int32{0}, []float64{4}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			src := f.ScanSource(ColSet{}, nil)
			if cols, _, _ := src.Block(0, nil); len(cols.Keys[0]) != cols.Rows || len(cols.Meas[0]) != cols.Rows {
				t.Errorf("scan block of %d rows has columns of %d and %d", cols.Rows, len(cols.Keys[0]), len(cols.Meas[0]))
			}
			src.Close()
		}
	}()
	wg.Wait()
	if f.Rows() != 1600 || f.Version() != 1600 {
		t.Errorf("Rows %d, Version %d, want 1600 and 1600", f.Rows(), f.Version())
	}
}
