package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/storage"
)

// saveSales writes the SALES and SALES_TARGET cubes of a generated
// dataset, and one declared labeler, as a session directory.
func saveSales(t *testing.T, rows int, seed int64) (*sales.Dataset, string) {
	t.Helper()
	ds := sales.Generate(rows, seed)
	dir := t.TempDir()
	cubes := map[string]*storage.FactTable{"SALES": ds.Fact, "SALES_TARGET": ds.External}
	passfail := labeling.MustRanges("passfail", []labeling.Interval{
		{Lo: labeling.Inf(-1), Hi: 0, HiOpen: true, Label: "fail"},
		{Lo: 0, Hi: labeling.Inf(1), Label: "pass"},
	})
	if err := SaveDir(dir, cubes, []*labeling.Ranges{passfail}); err != nil {
		t.Fatal(err)
	}
	return ds, dir
}

// byName indexes opened facts by their schema names.
func byName(o *Opened) map[string]*storage.FactTable {
	out := map[string]*storage.FactTable{}
	for _, f := range o.Facts {
		out[f.Schema.Name] = f
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	ds, dir := saveSales(t, 3000, 77)
	o, err := OpenDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	facts := byName(o)
	if len(facts) != 2 {
		t.Fatalf("opened %d cubes, want 2", len(o.Facts))
	}
	assertSameFact(t, ds.Fact, facts["SALES"])
	assertSameFact(t, ds.External, facts["SALES_TARGET"])
	// The two cubes decode their hierarchies separately; OpenDir must give
	// them back the shared objects an external benchmark joins over.
	for h, hier := range facts["SALES"].Schema.Hiers {
		if facts["SALES_TARGET"].Schema.Hiers[h] != hier {
			t.Errorf("hierarchy %s not shared after OpenDir", hier.Name())
		}
	}
	if len(o.Labelers) != 1 || o.Labelers[0].Name() != "passfail" {
		t.Errorf("labelers: %v", o.Labelers)
	}
}

func TestBinaryRoundTripPreservesQueryResults(t *testing.T) {
	ds, dir := saveSales(t, 4000, 79)
	o, err := OpenDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Error(err)
		}
	}()
	// The same cube query over original and out-of-core reopened cubes
	// must agree.
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
	loaded := byName(o)["SALES"]
	if loaded.Resident() {
		t.Fatal("OpenDir without resident returned a resident table")
	}
	a, b := run(ds.Fact), run(loaded)
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %g vs %g", k, v, b[k])
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := sales.FigureOne()
	// A single cube directory opens as a one-cube session.
	dir := t.TempDir()
	if err := SaveCubeDir(dir, ds.Fact, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	o, err := OpenDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Facts) != 1 || len(o.Labelers) != 0 {
		t.Fatalf("opened %d cubes and %d labelers, want 1 and 0", len(o.Facts), len(o.Labelers))
	}
	assertSameFact(t, ds.Fact, o.Facts[0])
	if _, err := OpenDir(filepath.Join(t.TempDir(), "missing"), true); err == nil {
		t.Error("missing directory opened")
	}
	if err := SaveDir(t.TempDir(), nil, nil); err == nil {
		t.Error("saving no cubes succeeded")
	}
	// A cube directory is never overwritten.
	parent := t.TempDir()
	cubes := map[string]*storage.FactTable{"SALES": ds.Fact}
	if err := SaveDir(parent, cubes, nil); err != nil {
		t.Fatal(err)
	}
	if err := SaveDir(parent, cubes, nil); err == nil {
		t.Error("saving over an existing cube directory succeeded")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := OpenDir(t.TempDir(), true); err == nil {
		t.Error("directory without cubes opened")
	}
	corrupt := map[string]func(dir string) error{
		"wrong schema magic": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "SALES", "schema.bin"), []byte("NOTASCHEMA\x01"), 0o644)
		},
		"truncated schema": func(dir string) error {
			path := filepath.Join(dir, "SALES", "schema.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)-9], 0o644)
		},
		"truncated labelers": func(dir string) error {
			path := filepath.Join(dir, LabelersFile)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)-1], 0o644)
		},
		"foreign labelers": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, LabelersFile), []byte("NOTLABELS\x01\x00\x00\x00\x00"), 0o644)
		},
	}
	for name, damage := range corrupt {
		_, dir := saveSales(t, 200, 5)
		if err := damage(dir); err != nil {
			t.Fatal(err)
		}
		for _, resident := range []bool{true, false} {
			if o, err := OpenDir(dir, resident); err == nil {
				o.Close()
				t.Errorf("%s (resident %v) accepted", name, resident)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := sales.Generate(500, 81)
	var buf bytes.Buffer
	if err := ExportCSV(&buf, ds.Fact); err != nil {
		t.Fatal(err)
	}
	loaded, err := ImportCSV(bytes.NewReader(buf.Bytes()), ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFact(t, ds.Fact, loaded)
}

func TestCSVImportErrors(t *testing.T) {
	ds := sales.FigureOne()
	s := ds.Schema
	mk := func(body string) error {
		_, err := ImportCSV(strings.NewReader(body), s)
		return err
	}
	header := "date,customer,product,store,quantity,storeSales,storeCost\n"
	if err := mk("wrong,header,x,y,z,w,v\n"); err == nil {
		t.Error("wrong header accepted")
	}
	if err := mk(header + "1997-04-15,Customer 00,Apple,SmartMart,1,2\n"); err == nil {
		t.Error("short row accepted")
	}
	if err := mk(header + "1997-04-15,Customer 00,Atlantis Fruit,SmartMart,1,2,3\n"); err == nil {
		t.Error("unknown member accepted")
	}
	if err := mk(header + "1997-04-15,Customer 00,Apple,SmartMart,one,2,3\n"); err == nil {
		t.Error("bad number accepted")
	}
	if err := mk(header + "1997-04-15,Customer 00,Apple,SmartMart,1,2,3\n"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

// assertSameFact compares two fact tables row by row using member names
// (dictionary ids may legitimately differ after a round trip).
func assertSameFact(t *testing.T, a, b *storage.FactTable) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	if len(a.Schema.Hiers) != len(b.Schema.Hiers) || len(a.Schema.Measures) != len(b.Schema.Measures) {
		t.Fatalf("schema shapes differ")
	}
	for _, h := range []int{0, len(a.Schema.Hiers) - 1} {
		if a.Schema.Hiers[h].Name() != b.Schema.Hiers[h].Name() {
			t.Fatalf("hierarchy %d names differ", h)
		}
	}
	step := a.Rows()/200 + 1
	for r := 0; r < a.Rows(); r += step {
		for h := range a.Schema.Hiers {
			na := a.Schema.Hiers[h].Dict(0).Name(a.Keys[h][r])
			nb := b.Schema.Hiers[h].Dict(0).Name(b.Keys[h][r])
			if na != nb {
				t.Fatalf("row %d hierarchy %d: %q vs %q", r, h, na, nb)
			}
		}
		for m := range a.Schema.Measures {
			va, vb := a.Meas[m][r], b.Meas[m][r]
			if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
				t.Fatalf("row %d measure %d: %g vs %g", r, m, va, vb)
			}
		}
	}
	// Roll-up structure preserved: spot-check that base members map to
	// the same top-level ancestors.
	for h := range a.Schema.Hiers {
		ha, hb := a.Schema.Hiers[h], b.Schema.Hiers[h]
		top := ha.Depth() - 1
		for id := int32(0); int(id) < ha.Dict(0).Len(); id += 17 {
			name := ha.Dict(0).Name(id)
			idB, ok := hb.Dict(0).Lookup(name)
			if !ok {
				t.Fatalf("member %q lost", name)
			}
			ta := ha.Dict(top).Name(ha.Rollup(id, 0, top))
			tb := hb.Dict(top).Name(hb.Rollup(idB, 0, top))
			if ta != tb {
				t.Fatalf("member %q rolls up to %q vs %q", name, ta, tb)
			}
		}
	}
}
