package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// None of these tests asserts anything about time: they pin the
// generated inputs, the structure of the outputs, and the transparency
// of the seam decorators.

const smokeSF = 0.002

func smokeOptions(t *testing.T, trace bool) runOptions {
	dir := t.TempDir()
	return runOptions{seed: 1, seconds: 1, trace: trace, smoke: true, workdir: dir, outDir: dir}
}

func statementHash(stmts []statement) string {
	h := sha256.New()
	for _, st := range stmts {
		fmt.Fprintf(h, "%s %s\n", st.Endpoint, st.Text)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStatementsGolden pins the statement lists: the same seed must give
// byte-identical inputs on both sides of any later comparison. A change
// of a hash means the workloads changed, and every earlier result with
// them.
func TestStatementsGolden(t *testing.T) {
	schema := ssb.Generate(smokeSF, 1).Schema
	golden := map[string]string{
		"cold_resident":  "74933dd79f6254b7",
		"warm_dashboard": "7591b45b4a9763a5",
		"cold_segment":   "5dfe12b18a64a272",
		"append_segment": "7591b45b4a9763a5",
		"cold_sharded":   "74933dd79f6254b7",
	}
	for _, w := range workloads {
		a := w.statements(schema, 1, 200)
		b := w.statements(schema, 1, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with one seed differ", w.name)
		}
		if got := statementHash(a); got != golden[w.name] {
			t.Errorf("%s: statement hash %s, golden %s", w.name, got, golden[w.name])
		}
		if other := w.statements(schema, 2, 200); statementHash(other) == statementHash(a) {
			t.Errorf("%s: seeds 1 and 2 give the same statements", w.name)
		}
	}
}

// TestColdStatementsDistinct: a repeated statement would be served by
// the result cache and break the premise of the cold workloads.
func TestColdStatementsDistinct(t *testing.T) {
	schema := ssb.Generate(smokeSF, 1).Schema
	for _, name := range []string{"cold_resident", "cold_segment", "cold_sharded"} {
		seen := make(map[string]bool)
		for _, st := range findWorkload(name).statements(schema, 1, 2000) {
			if seen[st.Text] {
				t.Fatalf("%s repeats %q", name, st.Text)
			}
			seen[st.Text] = true
		}
	}
	a, b := findWorkload("cold_resident"), findWorkload("cold_sharded")
	if !reflect.DeepEqual(a.statements(schema, 1, 100), b.statements(schema, 1, 100)) {
		t.Error("cold_sharded must replay the statements of cold_resident")
	}
}

// TestSmoke runs every workload both ways on tiny data, checks the
// structure of the result, and checks that two traced runs of a
// single-client workload agree exactly on the program's own counts.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, smokeOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkStructure(res); err != nil {
				t.Fatal(err)
			}
			first, err := runWorkload(w, smokeOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkStructure(first); err != nil {
				t.Fatal(err)
			}
			if w.appendEvery > 0 {
				return // the writer races the reads: counts vary
			}
			second, err := runWorkload(w, smokeOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"engine.rows_scanned", "engine.scans", "colstore.blocks_total",
				"colstore.blocks_pruned", "dist.fanouts", "qcache.hit_ratio", "engine.transfer_cells"} {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs: %v and %v", name, a, b)
				}
			}
			if strings.HasPrefix(w.name, "cold_") && first.Metrics["qcache.hit_ratio"].Value != 0 {
				t.Errorf("cold workload hit the result cache: ratio %v", first.Metrics["qcache.hit_ratio"].Value)
			}
		})
	}
}

// TestSeamsTransparent: a deployment built with the decorators answers
// bit-identically to one built without, and the decorated scan source
// still offers the pruning capabilities shared scans look for.
func TestSeamsTransparent(t *testing.T) {
	for _, name := range []string{"cold_segment", "cold_sharded"} {
		w := findWorkload(name)
		plain, err := deploy(w, smokeSF, 1, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer plain.close()
		rec := newRecorder()
		traced, err := deploy(w, smokeSF, 1, t.TempDir(), rec)
		if err != nil {
			t.Fatal(err)
		}
		defer traced.close()
		rec.cur.Store(0) // record as if a statement were in flight
		for _, st := range w.statements(plain.ds.Schema, 1, 40) {
			a, err := plain.session.ExecWith(st.Text, plan.NP)
			if err != nil {
				t.Fatal(err)
			}
			b, err := traced.session.ExecWith(st.Text, plan.NP)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Cube.Coords, b.Cube.Coords) || !reflect.DeepEqual(a.Cube.Labels, b.Cube.Labels) {
				t.Fatalf("%s: %q: coordinates or labels differ under the decorators", name, st.Text)
			}
			for j := range a.Cube.Cols {
				for i := range a.Cube.Cols[j] {
					if math.Float64bits(a.Cube.Cols[j][i]) != math.Float64bits(b.Cube.Cols[j][i]) {
						t.Fatalf("%s: %q: value differs under the decorators", name, st.Text)
					}
				}
			}
		}
		if len(rec.spans) == 0 {
			t.Errorf("%s: the decorators recorded nothing", name)
		}
	}

	w := findWorkload("cold_segment")
	d, err := deploy(w, smokeSF, 1, t.TempDir(), newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	month, _ := d.fact.Schema.FindLevel("month")
	preds := []storage.LevelPred{{Hier: month.Hier, Level: month.Level, Members: []int32{0}}}
	src := d.fact.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	inner := src.(*tracedSource).ScanSource
	prober, ok := src.(storage.PruneProber)
	planner, ok2 := src.(storage.PrunePlanner)
	if !ok || !ok2 {
		t.Fatal("decorated scan source lost PruneProber or PrunePlanner")
	}
	pp := planner.PrunePlan(preds)
	for b := 0; b < src.Blocks(); b++ {
		if want := inner.(storage.PruneProber).PrunedFor(b, preds); prober.PrunedFor(b, preds) != want || pp.Pruned(b) != want {
			t.Errorf("block %d: decorated prune answers differ from the store's %v", b, want)
		}
	}
}

func TestSpanTreeChecks(t *testing.T) {
	ok := []span{
		{Stmt: 1, Name: spanStmt, StartUs: 0, EndUs: 100},
		{Stmt: 1, Name: spanHandler, StartUs: 10, EndUs: 90},
		{Stmt: 1, Name: spanDistScan, StartUs: 20, EndUs: 40},
		{Stmt: 1, Name: spanShard, StartUs: 21, EndUs: 30},
		{Stmt: 1, Name: spanShard, StartUs: 21, EndUs: 39},
		{Stmt: 1, Name: spanDistScan, StartUs: 40, EndUs: 60},
		{Stmt: 1, Name: spanExecTotal, EndUs: 70, Derived: true},
	}
	if err := checkSpanTrees(ok); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	if got := unionNamed(ok, spanShard); got != 18 {
		t.Errorf("union of parallel shard spans = %v, want 18", got)
	}
	if got := slowestShards(ok); got != 18 {
		t.Errorf("slowest shard = %v, want 18", got)
	}
	bad := map[string]span{
		"handler outside stmt": {Stmt: 1, Name: spanHandler, StartUs: 10, EndUs: 120},
		"seam outside handler": {Stmt: 1, Name: spanBlock, StartUs: 5, EndUs: 20},
		"overlapping scans":    {Stmt: 1, Name: spanDistScan, StartUs: 30, EndUs: 50},
		"orphan shard":         {Stmt: 1, Name: spanShard, StartUs: 61, EndUs: 70},
		"exec beyond handler":  {Stmt: 1, Name: spanExecTotal, EndUs: 500, Derived: true},
	}
	for name, extra := range bad {
		spans := append([]span(nil), ok...)
		if extra.Name == spanHandler {
			spans[1] = extra
		} else {
			spans = append(spans, extra)
		}
		if checkSpanTrees(spans) == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "stmt_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "stmts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50, rate []float64) string {
		path := filepath.Join(dir, name)
		for i := range p50 {
			res := &runResult{Workload: "cold_resident", Seed: int64(i), Correct: true, Attempted: 10, Metrics: map[string]metric{
				"stmt_p50_ms": {Value: p50[i], Unit: "ms"}, "stmts_per_s": {Value: rate[i], Unit: "1/s"}}}
			if err := appendRecord(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", []float64{10, 10.1, 9.9}, []float64{100, 101, 99})
	cases := []struct {
		name      string
		file      string
		regressed bool
		want      []string
	}{
		{"same", write("same.json", []float64{10.2, 10.3, 10.1}, []float64{99, 100, 98}), false, []string{"ok"}},
		{"slower", write("slow.json", []float64{12, 12.1, 11.9}, []float64{80, 81, 79}), true, []string{"regression"}},
		{"faster", write("fast.json", []float64{8, 8.1, 7.9}, []float64{120, 121, 119}), false, []string{"ok"}},
		{"noisy", write("noisy.json", []float64{8, 12, 16}, []float64{100, 101, 99}), false, []string{"unresolved", "ok"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, c.file)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", c.name, w, out.String())
			}
		}
	}
}

// TestVocabularyMatchesBenchmarkJSON keeps the program and the contract
// file at the repository root in step: same workloads, same metrics,
// same units.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSortByDate: the sort is a stable permutation applied alike to both
// tables.
func TestSortByDate(t *testing.T) {
	ds := ssb.Generate(smokeSF, 1)
	type row struct {
		keys [4]int32
		rev  float64
		exp  float64
	}
	collect := func() []row {
		rows := make([]row, ds.Fact.Rows())
		for i := range rows {
			for h := 0; h < 4; h++ {
				rows[i].keys[h] = ds.Fact.Keys[h][i]
				if ds.Budget.Keys[h][i] != ds.Fact.Keys[h][i] {
					t.Fatalf("row %d: the budget table's keys diverge from the fact table's", i)
				}
			}
			rows[i].rev, rows[i].exp = ds.Fact.Meas[1][i], ds.Budget.Meas[0][i]
		}
		return rows
	}
	before := collect()
	sortByDate(ds)
	after := collect()
	// Stable sort of the original by date must equal what sortByDate made.
	want := make([]row, 0, len(before))
	for d := int32(0); d < int32(ds.Schema.Hiers[0].Dict(0).Len()); d++ {
		for _, r := range before {
			if r.keys[0] == d {
				want = append(want, r)
			}
		}
	}
	if !reflect.DeepEqual(after, want) {
		t.Error("sortByDate is not the stable sort by date key")
	}
}
