package dist

import (
	"context"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
)

// TestResidentAppendBesideScan appends to a resident shard while scans
// run on it, as POST /dist/append beside /dist/scan does on a worker.
// Every scan must count a prefix of the rows: at least what the previous
// scan counted and at most everything appended. Run it under -race: the
// append must not write column headers a scan is reading.
func TestResidentAppendBesideScan(t *testing.T) {
	ds := sales.Generate(1000, 3)
	w := NewWorker()
	if err := w.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	const appends = 2000
	base := ds.Fact.Rows()
	req := &ScanRequest{
		Fact:     "SALES",
		Group:    []mdm.LevelRef{{Hier: 3, Level: 2}},
		Measures: []int{0},
		Ops:      []int{int(mdm.AggCount)},
		Names:    []string{"n"},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys, vals := []int32{0, 0, 0, 0}, []float64{1, 1, 1}
		for i := 0; i < appends; i++ {
			if _, err := w.Append("SALES", keys, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	prev := base
	for scans := 0; prev < base+appends || scans < 10; scans++ {
		_, c, err := w.Scan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, n := range c.Cols[0] {
			rows += int(n)
		}
		if rows < prev || rows > base+appends {
			t.Fatalf("scan %d counted %d rows after %d, of %d..%d", scans, rows, prev, base, base+appends)
		}
		prev = rows
	}
	wg.Wait()
}
