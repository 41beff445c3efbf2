package engine

import (
	"math/rand"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
	"github.com/assess-olap/assess/internal/testutil"
)

func TestSetParallelismDefaults(t *testing.T) {
	e := New()
	e.SetParallelism(0) // selects NumCPU
	if e.workers < 1 {
		t.Errorf("workers = %d", e.workers)
	}
	e.SetParallelism(3)
	if e.workers != 3 {
		t.Errorf("workers = %d", e.workers)
	}
}

func TestParallelSmallScanFallsBack(t *testing.T) {
	// Tiny inputs run serial even with parallelism enabled (threshold).
	ds := ssb.Generate(0.0001, 3)
	e := New()
	e.SetParallelism(8)
	if err := e.Register("LINEORDER", ds.Fact); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "LINEORDER", Group: nil, Measures: []int{0}}
	c, err := e.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("grand total has %d cells", c.Len())
	}
}

// TestSetParallelMinRows verifies the threshold knob: lowering it lets a
// small scan partition across workers and still produce the serial cells.
func TestSetParallelMinRows(t *testing.T) {
	h := mdm.NewHierarchy("K", "k", "g")
	for i := 0; i < 40; i++ {
		h.MustAddMember(memberName(i), memberName(i%5))
	}
	s := mdm.NewSchema("T", []*mdm.Hierarchy{h}, []mdm.Measure{
		{Name: "s", Op: mdm.AggSum},
		{Name: "a", Op: mdm.AggAvg},
		{Name: "lo", Op: mdm.AggMin},
		{Name: "hi", Op: mdm.AggMax},
		{Name: "n", Op: mdm.AggCount},
	})
	fact := buildRandomFact(t, s, 2000)
	serial, parallel := New(), New()
	parallel.SetParallelism(4)
	parallel.SetParallelMinRows(100) // 2000 rows / 100 = up to 20 workers
	if err := serial.Register("T", fact); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Register("T", fact); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Measures: []int{0, 1, 2, 3, 4}}
	a, err := serial.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("serial %d cells, parallel %d", a.Len(), b.Len())
	}
	for i, coord := range a.Coords {
		bi, ok := b.Lookup(coord)
		if !ok {
			t.Fatalf("coordinate missing from parallel result")
		}
		for j := range a.Cols {
			if !testutil.FloatNear(a.Cols[j][i], b.Cols[j][bi], 1e-9) {
				t.Errorf("measure %s: serial %g parallel %g", a.Names[j], a.Cols[j][i], b.Cols[j][bi])
			}
		}
	}
	parallel.SetParallelMinRows(0)
	if got := parallel.parallelMinRows(); got != parallelThreshold {
		t.Errorf("SetParallelMinRows(0) should restore the default, got %d", got)
	}
}

func memberName(i int) string {
	return string([]byte{byte('a' + i%26), byte('a' + (i/26)%26), byte('0' + (i/676)%10)})
}

func buildRandomFact(t *testing.T, s *mdm.Schema, rows int) *storage.FactTable {
	t.Helper()
	f := storage.NewFactTable(s)
	f.Reserve(rows)
	rng := rand.New(rand.NewSource(99))
	n := s.Hiers[0].Dict(0).Len()
	for r := 0; r < rows; r++ {
		v := rng.Float64()*200 - 100
		f.MustAppend([]int32{int32(rng.Intn(n))}, []float64{v, v, v, v, 0})
	}
	return f
}
