package engine

import (
	"testing"

	"github.com/assess-olap/assess/internal/ssb"
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

func memberName(i int) string {
	return string([]byte{byte('a' + i%26), byte('a' + (i/26)%26), byte('0' + (i/676)%10)})
}
