package persist

import (
	"math"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

func TestCubeDirRoundTripResident(t *testing.T) {
	ds := sales.Generate(3000, 77)
	dir := t.TempDir()
	if err := SaveCubeDir(dir, ds.Fact, colstore.Options{SegmentRows: 256}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCubeDirResident(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFact(t, ds.Fact, loaded)

	// Level-property tables survive the segment format in schema.bin.
	ref, _ := loaded.Schema.FindLevel("country")
	h := loaded.Schema.Hiers[ref.Hier]
	italy, ok := loaded.Schema.Dict(ref).Lookup("Italy")
	if !ok {
		t.Fatal("Italy lost")
	}
	if got := h.PropertyValue(ref.Level, "population", italy); got != 59.0 {
		t.Errorf("population = %g, want 59", got)
	}
}

// TestCubeDirSegmentBackedQueries answers the same query from the
// resident original and the segment-backed reopened directory and
// demands identical cells, before and after further appends.
func TestCubeDirSegmentBackedQueries(t *testing.T) {
	ds := sales.Generate(4000, 79)
	dir := t.TempDir()
	if err := SaveCubeDir(dir, ds.Fact, colstore.Options{SegmentRows: 512}); err != nil {
		t.Fatal(err)
	}
	seg, st, err := OpenCubeDir(dir, colstore.Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if seg.Segments() == nil || seg.Resident() {
		t.Fatal("OpenCubeDir did not return a segment-backed table")
	}

	run := func(f *storage.FactTable) map[string]float64 {
		e := engine.New()
		if err := e.Register("SALES", f); err != nil {
			t.Fatal(err)
		}
		s := f.Schema
		qi, _ := s.MeasureIndex("quantity")
		c, err := e.Get(engine.Query{
			Fact:     "SALES",
			Group:    mdm.MustGroupBy(s, "product", "country"),
			Measures: []int{qi},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for i := range c.Len() {
			coord := c.Coord(i)
			out[coord.Format(s, c.Group)] = c.Cols[0][i]
		}
		return out
	}
	compare := func(stage string) {
		t.Helper()
		a, b := run(ds.Fact), run(seg)
		if len(a) != len(b) {
			t.Fatalf("%s: cell counts differ: %d vs %d", stage, len(a), len(b))
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s: %g vs %g", stage, k, v, b[k])
			}
		}
	}
	compare("cold")

	// Appends route through the WAL and stay bit-exact with resident.
	keys := make([]int32, len(ds.Schema.Hiers))
	vals := []float64{3, 42.5, 17.25}
	for r := 0; r < 25; r++ {
		for h := range keys {
			keys[h] = ds.Fact.Keys[h][r]
		}
		if err := ds.Fact.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := seg.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	compare("after-append")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	compare("after-compact")
}

func TestLabelersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Missing sidecar is empty, not an error.
	if ls, err := LoadLabelers(dir); err != nil || len(ls) != 0 {
		t.Fatalf("missing sidecar: %v, %d labelers", err, len(ls))
	}
	in := []*labeling.Ranges{
		labeling.MustRanges("passfail", []labeling.Interval{
			{Lo: labeling.Inf(-1), Hi: 0, HiOpen: true, Label: "fail"},
			{Lo: 0, Hi: labeling.Inf(1), Label: "pass"},
		}),
		labeling.MustRanges("grade", []labeling.Interval{
			{Lo: 0, Hi: 50, HiOpen: true, Label: "low"},
			{Lo: 50, Hi: 80, HiOpen: true, Label: "mid"},
			{Lo: 80, Hi: 100, Label: "high"},
		}),
	}
	if err := SaveLabelers(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadLabelers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d labelers, want %d", len(out), len(in))
	}
	values := []float64{-5, 0, 30, 49.999, 50, 75, 80, 100, math.NaN()}
	for i := range in {
		if out[i].Name() != in[i].Name() {
			t.Errorf("labeler %d name %q, want %q", i, out[i].Name(), in[i].Name())
		}
		want, got := in[i].Apply(values), out[i].Apply(values)
		for j := range values {
			if got.Name(j) != want.Name(j) {
				t.Errorf("labeler %q value %g: label %q, want %q", in[i].Name(), values[j], got.Name(j), want.Name(j))
			}
		}
	}
}

// TestCubeDirBlocksSpanSegments: SaveCubeDir hands the bulk writer the
// resident table as one 3 000-row block, which spans eleven segment
// boundaries at 256 rows a segment; OpenCubeDir serves every row back in
// order, bit for bit, and LoadCubeDirResident's block appends leave the
// version at the row count.
func TestCubeDirBlocksSpanSegments(t *testing.T) {
	ds := sales.Generate(3000, 81)
	dir := t.TempDir()
	if err := SaveCubeDir(dir, ds.Fact, colstore.Options{SegmentRows: 256}); err != nil {
		t.Fatal(err)
	}
	seg, st, err := OpenCubeDir(dir, colstore.Options{AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if info := seg.Segments().Info(); info.Segments != 12 || info.SegmentRows != 3000 {
		t.Fatalf("%d segments of %d rows, want 12 of 3000", info.Segments, info.SegmentRows)
	}
	src := seg.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	r := 0
	err = storage.ForBlocks(src, func(b storage.BlockCols) error {
		for i := 0; i < b.Rows; i, r = i+1, r+1 {
			for h, col := range b.Keys {
				if col[i] != ds.Fact.Keys[h][r] {
					t.Fatalf("row %d hierarchy %d: key %d, saved %d", r, h, col[i], ds.Fact.Keys[h][r])
				}
			}
			for m, col := range b.Meas {
				if math.Float64bits(col[i]) != math.Float64bits(ds.Fact.Meas[m][r]) {
					t.Fatalf("row %d measure %d: %v, saved %v", r, m, col[i], ds.Fact.Meas[m][r])
				}
			}
		}
		return nil
	})
	if err != nil || r != 3000 {
		t.Fatalf("read %d rows back, err %v", r, err)
	}
	loaded, err := LoadCubeDirResident(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows() != 3000 || loaded.Version() != 3000 {
		t.Errorf("resident load: %d rows at version %d, want 3000 at 3000", loaded.Rows(), loaded.Version())
	}
}
