package assess_test

import (
	"bytes"
	"math"
	"testing"

	assess "github.com/assess-olap/assess"
)

// TestFacadeLabelerConstructors exercises the public labeler helpers.
func TestFacadeLabelerConstructors(t *testing.T) {
	r, err := assess.NewRangeLabeler("passfail", []assess.Interval{
		{Lo: assess.Inf(-1), Hi: 0, HiOpen: true, Label: "fail"},
		{Lo: 0, Hi: assess.Inf(1), Label: "pass"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Apply([]float64{-1, 1}); got.Name(0) != "fail" || got.Name(1) != "pass" {
		t.Errorf("Apply = %v", got)
	}
	if _, err := assess.NewRangeLabeler("bad", []assess.Interval{{Lo: 1, Hi: 0, Label: "x"}}); err == nil {
		t.Error("invalid interval accepted")
	}
	q, err := assess.NewQuantileLabeler("halves", 2, []string{"hi", "lo"})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Apply([]float64{1, 2}); got.Name(0) != "lo" || got.Name(1) != "hi" {
		t.Errorf("quantiles = %v", got)
	}
	if !math.IsInf(assess.Inf(1), 1) || !math.IsInf(assess.Inf(-1), -1) {
		t.Error("Inf helper wrong")
	}
	// Registered on a session, a custom labeler is usable by name.
	s := figureOneSession(t)
	if err := s.RegisterLabeler(r); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`with SALES by product assess quantity against 50
		using difference(quantity, benchmark.quantity) labels passfail`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() == 0 {
		t.Error("empty result")
	}
}

// TestFacadePersistence exercises the public session save/open and CSV
// wrappers.
func TestFacadePersistence(t *testing.T) {
	ds := assess.FigureOneDataset()
	orig := assess.NewSession()
	if err := orig.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/figure1"
	if err := assess.SaveSession(dir, orig); err != nil {
		t.Fatal(err)
	}
	s, closeStores, err := assess.OpenSession(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := closeStores(); err != nil {
			t.Error(err)
		}
	}()
	loaded, ok := s.Engine.Fact("SALES")
	if !ok || loaded.Rows() != ds.Fact.Rows() || loaded.Resident() {
		t.Fatalf("opened SALES: %v, resident %v", ok, ok && loaded.Resident())
	}
	// CSV reads the out-of-core cube through its scan source.
	var csvBuf bytes.Buffer
	if err := assess.ExportCSV(&csvBuf, loaded); err != nil {
		t.Fatal(err)
	}
	imported, err := assess.ImportCSV(bytes.NewReader(csvBuf.Bytes()), ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if imported.Rows() != ds.Fact.Rows() {
		t.Errorf("CSV round trip: %d rows", imported.Rows())
	}
	// A reopened cube answers the paper's worked example identically.
	res, err := s.Exec(siblingStatement)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() != 3 {
		t.Errorf("reloaded cube gave %d cells", res.Cube.Len())
	}
}

// TestFacadeSSBSession exercises the SSB helpers end to end.
func TestFacadeSSBSession(t *testing.T) {
	s, ds, err := assess.NewSSBSession(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Fact.Rows() != 6000 {
		t.Fatalf("rows = %d", ds.Fact.Rows())
	}
	if err := s.Materialize("LINEORDER", "customer", "year"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`with LINEORDER by year assess revenue labels quartiles`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() != 7 {
		t.Errorf("%d years", res.Cube.Len())
	}
	hl, err := res.Highlights(1)
	if err != nil {
		t.Fatal(err)
	}
	var _ []assess.Highlight = hl
}
