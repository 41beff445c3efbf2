package dist

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// readBack copies f's rows into a resident table, reading f block by
// block as a scan does — a block that lists its rows for those rows
// alone, which storage.ForBlocks refuses to read — and checks each block
// serves the rows BlockRows promised.
func readBack(t *testing.T, f *storage.FactTable) *storage.FactTable {
	t.Helper()
	out := storage.NewFactTable(f.Schema)
	src := f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	var sc storage.BlockScratch
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil || !ok {
			t.Fatalf("block %d: ok=%v err=%v", b, ok, err)
		}
		if cols.Listed != nil {
			listed := storage.BlockCols{Keys: make([][]int32, len(cols.Keys)), Meas: make([][]float64, len(cols.Meas)), Rows: len(cols.Listed)}
			for h, col := range cols.Keys {
				listed.Keys[h] = valuesAt(col, cols.Listed)
			}
			for m, col := range cols.Meas {
				listed.Meas[m] = valuesAt(col, cols.Listed)
			}
			cols = listed
		}
		if cols.Rows != src.BlockRows(b) {
			t.Fatalf("block %d serves %d rows, BlockRows says %d", b, cols.Rows, src.BlockRows(b))
		}
		if err := out.AppendBlock(cols); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// valuesAt returns col's values at rows.
func valuesAt[T any](col []T, rows []int32) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = col[r]
	}
	return out
}

// sameShard reports how a local shard differs from the split shard it
// stands for — rows, Version, order, keys or measure bits — or "".
func sameShard(t *testing.T, got, want *storage.FactTable) string {
	t.Helper()
	if got.Rows() != want.Rows() || got.Version() != want.Version() {
		return fmt.Sprintf("%d rows at version %d, want %d at %d", got.Rows(), got.Version(), want.Rows(), want.Version())
	}
	// readBack's copy counts its rows as its Version, as a split shard does.
	return sameTable(readBack(t, got), want)
}

// sampleRows returns n rows of f, spread over it, with fresh integer
// measure values: rows to append that carry keys f already holds.
func sampleRows(t *testing.T, f *storage.FactTable, n int) (keys [][]int32, vals [][]float64) {
	t.Helper()
	all := readBack(t, f)
	for i := 0; i < n; i++ {
		r := i * all.Rows() / n
		k := make([]int32, f.NumHiers())
		for h := range k {
			k[h] = all.Keys[h][r]
		}
		v := make([]float64, f.NumMeasures())
		for m := range v {
			v[m] = float64(1000*i + m)
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	return keys, vals
}

// shardScans is a set of scan requests over fact "F" of an SSB schema:
// unpredicated, predicated on one hierarchy (twice, which share one
// vector) and on two, grouped by a predicated level and by others.
func shardScans(t *testing.T, s *mdm.Schema) []*ScanRequest {
	t.Helper()
	level := func(name string) mdm.LevelRef {
		l, ok := s.FindLevel(name)
		if !ok {
			t.Fatalf("no level %s", name)
		}
		return l
	}
	pred := func(name string, members ...int32) WirePred {
		l := level(name)
		return WirePred{Hier: l.Hier, Level: l.Level, Members: members}
	}
	req := func(group []string, preds ...WirePred) *ScanRequest {
		r := &ScanRequest{Fact: "F", Preds: preds, Measures: []int{0, 0}, Ops: []int{int(mdm.AggSum), int(mdm.AggCount)}, Names: []string{"s", "n"}}
		for _, g := range group {
			r.Group = append(r.Group, level(g))
		}
		return r
	}
	return []*ScanRequest{
		req([]string{"year", "cnation"}),
		req([]string{"cnation"}, pred("year", 2)),
		req([]string{"year", "category"}, pred("cregion", 1), pred("cnation", 5, 6, 7)),
		req([]string{"month"}, pred("year", 0, 3), pred("mfgr", 1)),
		req(nil, pred("year", 99)),
	}
}

// sameScan reports how the answers of two workers to req differ — cells,
// keys or value bits — or "".
func sameScan(a, b *Worker, req *ScanRequest) string {
	_, ca, errA := a.Scan(context.Background(), req)
	_, cb, errB := b.Scan(context.Background(), req)
	if errA != nil || errB != nil {
		return fmt.Sprintf("errors %v and %v", errA, errB)
	}
	if ca.Len() != cb.Len() {
		return fmt.Sprintf("%d cells, want %d", ca.Len(), cb.Len())
	}
	for p := range cb.Keys {
		if !slices.Equal(ca.Keys[p], cb.Keys[p]) {
			return fmt.Sprintf("group position %d keys differ", p)
		}
	}
	for j := range cb.Cols {
		for i, v := range cb.Cols[j] {
			if math.Float64bits(ca.Cols[j][i]) != math.Float64bits(v) {
				return fmt.Sprintf("cell %d column %s: %v, want %v", i, cb.Names[j], ca.Cols[j][i], v)
			}
		}
	}
	return ""
}

// TestLocalShardMatchesSplit: every shard of a LocalCluster, read block by
// block, is SplitFact's shard bit for bit — rows, order, keys, measure
// bits, Rows() and Version() — over resident and segment-backed parents,
// 1 to 3 shards, at base and rolled-up shard levels; and stays so after
// rows appended through Coordinator.Append, which a split shard takes
// the same way. Predicated scans of both answer bit for bit alike. The
// segment-backed parent is compacted after the appends, which must not
// move a borrowed row.
func TestLocalShardMatchesSplit(t *testing.T) {
	ds := ssb.Generate(0.02, 5) // 120 000 rows: one shard of them is served in two parts
	opts := colstore.Options{SegmentRows: 1 << 13, AutoCompactRows: -1}
	for _, c := range []struct {
		backend string
		level   string
	}{
		{"resident", "customer"},
		{"resident", "cnation"},
		{"segments", "part"},
		{"segments", "year"},
	} {
		for _, n := range []int{1, 2, 3} {
			name := fmt.Sprintf("%s/%s/%d", c.backend, c.level, n)
			t.Run(name, func(t *testing.T) {
				parent := ds.Budget
				var st *colstore.Store
				if c.backend == "resident" {
					parent = readBack(t, ds.Fact)
				} else {
					dir := filepath.Join(t.TempDir(), "LINEORDER_BUDGET")
					if err := persist.SaveCubeDir(dir, ds.Budget, opts); err != nil {
						t.Fatal(err)
					}
					var err error
					if parent, st, err = persist.OpenCubeDir(dir, opts); err != nil {
						t.Fatal(err)
					}
					defer st.Close()
				}
				level, ok := parent.Schema.FindLevel(c.level)
				if !ok {
					t.Fatalf("no level %s", c.level)
				}
				want, err := SplitFact(parent, level, n)
				if err != nil {
					t.Fatal(err)
				}
				lc := NewLocalCluster(n)
				if err := lc.AddFact("F", parent, level); err != nil {
					t.Fatal(err)
				}
				reqs := shardScans(t, parent.Schema)
				compare := func(when string) {
					for i, w := range lc.Workers {
						got, _ := w.Engine().Fact("F")
						if d := sameShard(t, got, want[i]); d != "" {
							t.Errorf("%s: shard %d: %s", when, i, d)
						}
						split := NewWorker()
						if err := split.Register("F", want[i]); err != nil {
							t.Fatal(err)
						}
						for _, req := range reqs {
							if d := sameScan(w, split, req); d != "" {
								t.Errorf("%s: shard %d: %v: %s", when, i, req.Preds, d)
							}
						}
					}
				}
				compare("before appends")

				eng := engine.New()
				if err := eng.Register("F", parent); err != nil {
					t.Fatal(err)
				}
				coord := NewCoordinator(eng, Config{})
				if err := coord.AddTable("F", level, lc.Clients(), true); err != nil {
					t.Fatal(err)
				}
				owner := owners(parent.Schema, level, n)
				keys, vals := sampleRows(t, parent, 40)
				for r := range keys {
					if err := coord.Append(context.Background(), "F", keys[r], vals[r]); err != nil {
						t.Fatal(err)
					}
					if err := want[owner[keys[r][level.Hier]]].Append(keys[r], vals[r]); err != nil {
						t.Fatal(err)
					}
				}
				if st != nil {
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				compare("after appends")
			})
		}
	}
}

// TestLocalShardReadsInPlace: a local shard over a resident parent serves
// the parent's own key and measure columns, never a copy of them, with
// the shard's row positions as each block's Listed rows, cut in parts but
// not copied either; its tail follows as a block of its own.
func TestLocalShardReadsInPlace(t *testing.T) {
	ds := sales.Generate(3000, 11)
	lc := NewLocalCluster(2)
	if err := lc.AddFact("SALES", ds.Fact, AutoShardLevel(ds.Schema)); err != nil {
		t.Fatal(err)
	}
	for i, w := range lc.Workers {
		f, _ := w.Engine().Fact("SALES")
		src := f.ScanSource(storage.ColSet{}, nil)
		if src.Blocks() != 2 {
			t.Fatalf("shard %d: %d blocks, want its rows' one and the tail's", i, src.Blocks())
		}
		cols, ok, err := src.Block(0, new(storage.BlockScratch))
		if err != nil || !ok {
			t.Fatalf("shard %d: ok=%v err=%v", i, ok, err)
		}
		rows := f.Segments().(*localShard).rows
		if len(rows) == 0 || len(cols.Listed) != len(rows) || &cols.Listed[0] != &rows[0] {
			t.Errorf("shard %d: %d listed rows, not its %d positions", i, len(cols.Listed), len(rows))
		}
		if cols.Rows != ds.Fact.Rows() {
			t.Errorf("shard %d: block of %d rows, the parent holds %d", i, cols.Rows, ds.Fact.Rows())
		}
		for h, col := range cols.Keys {
			if &col[0] != &ds.Fact.Keys[h][0] {
				t.Errorf("shard %d: key column %d is not the parent's", i, h)
			}
		}
		for m, col := range cols.Meas {
			if &col[0] != &ds.Fact.Meas[m][0] {
				t.Errorf("shard %d: measure column %d is not the parent's", i, m)
			}
		}
		src.Close()
	}
}

// TestLocalClusterHoldsNoCopy: adding a 300 000-row SSB fact to a
// 2-shard local cluster allocates the shards' row positions, 4 B a row,
// and a fixed slack besides — not the 40 B a row of a copy. Measured as
// the growth of the process's cumulative allocation, with no timer. A
// scan's partial is not copied either: the shard's client hands the
// worker's key and measure columns over as they are, on the
// coordinator's schema, which need not be the worker's object.
func TestLocalClusterHoldsNoCopy(t *testing.T) {
	const slack = 64 << 10
	ds := ssb.Generate(0.05, 42)
	rows := ds.Fact.Rows()
	lc := NewLocalCluster(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := lc.AddFact("LINEORDER", ds.Fact, AutoShardLevel(ds.Schema)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(4*rows + slack); got > limit {
		t.Fatalf("AddFact of %d rows allocated %d B (%.1f B a row), want at most %d", rows, got, float64(got)/float64(rows), limit)
	}
	t.Logf("AddFact of %d rows allocated %d B (%.2f B a row)", rows, got, float64(got)/float64(rows))

	coordSchema := mdm.NewSchema(ds.Schema.Name, ds.Schema.Hiers, ds.Schema.Measures)
	req := &ScanRequest{Fact: "LINEORDER", Group: mdm.MustGroupBy(ds.Schema, "cnation", "year"),
		Measures: []int{0, 1}, Ops: []int{int(mdm.AggSum), int(mdm.AggCount)}, Names: []string{"sum", "n"}}
	_, pc, err := lc.Workers[0].Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	part, err := adopt(coordSchema, req, pc)
	if err != nil {
		t.Fatal(err)
	}
	if part.Schema != coordSchema || part.Len() != pc.Len() || pc.Len() == 0 {
		t.Fatalf("adopted partial: schema %p (want %p), %d cells of %d", part.Schema, coordSchema, part.Len(), pc.Len())
	}
	for p := range pc.Keys {
		if &part.Keys[p][0] != &pc.Keys[p][0] {
			t.Errorf("key column %d was copied", p)
		}
	}
	for j := range pc.Cols {
		if &part.Cols[j][0] != &pc.Cols[j][0] {
			t.Errorf("measure column %d was copied", j)
		}
	}
	_, viaClient, err := lc.Clients()[0][0].Scan(context.Background(), req, coordSchema)
	if err != nil {
		t.Fatal(err)
	}
	if viaClient.Schema != coordSchema {
		t.Errorf("client reply on schema %p, want the coordinator's %p", viaClient.Schema, coordSchema)
	}
	diffCubes(t, "client reply", pc, viaClient)
}

// TestLocalShardScanBesideAppend scans local shards, directly and through
// the coordinator, while rows are appended through Coordinator.Append,
// which grows both a shard's tail and the resident parent the shard
// borrows from. Every direct scan counts a prefix of its shard's rows:
// at least what the previous scan counted, at most all of them, and
// every row once the appends are done, when the coordinator's count is
// the parent's. Run it under
// -race -count=10: neither append may write what a gather reads.
func TestLocalShardScanBesideAppend(t *testing.T) {
	ds := sales.Generate(3000, 11)
	level := AutoShardLevel(ds.Schema)
	lc := NewLocalCluster(2)
	if err := lc.AddFact("SALES", ds.Fact, level); err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	if err := eng.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Config{ShardTimeout: time.Minute})
	if err := coord.AddTable("SALES", level, lc.Clients(), false); err != nil {
		t.Fatal(err)
	}
	const appends = 1500
	keys, vals := sampleRows(t, ds.Fact, appends)
	owner := owners(ds.Schema, level, 2)
	var final [2]int
	for i, w := range lc.Workers {
		f, _ := w.Engine().Fact("SALES")
		final[i] = f.Rows()
	}
	for r := range keys {
		final[owner[keys[r][level.Hier]]]++
	}
	req := &ScanRequest{
		Fact:     "SALES",
		Group:    []mdm.LevelRef{{Hier: 3, Level: 2}},
		Measures: []int{0},
		Ops:      []int{int(mdm.AggCount)},
		Names:    []string{"n"},
	}
	count := func(cols [][]float64) int {
		n := 0
		for _, v := range cols[0] {
			n += int(v)
		}
		return n
	}

	var wg sync.WaitGroup
	var appended atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer appended.Store(true)
		for r := range keys {
			if err := coord.Append(context.Background(), "SALES", keys[r], vals[r]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, w := range lc.Workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			f, _ := w.Engine().Fact("SALES")
			prev := 0
			for scans := 0; ; scans++ {
				// Read the flag before the scan: a scan that starts after
				// the last append must count every row.
				last := appended.Load()
				_, c, err := w.Scan(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				n := count(c.Cols)
				if n < prev || n > final[i] || n > f.Rows() {
					t.Errorf("shard %d scan %d counted %d rows after %d, of at most %d", i, scans, n, prev, final[i])
					return
				}
				if last && scans >= 10 {
					if n != final[i] {
						t.Errorf("shard %d counted %d rows after the appends, want %d", i, n, final[i])
					}
					return
				}
				prev = n
			}
		}(i, w)
	}
	q := engine.Query{Fact: "SALES", Group: mdm.GroupBy{{Hier: 3, Level: 2}}, Measures: []int{0}}
	for scans := 0; scans < 20; scans++ {
		if _, err := coord.Scan(context.Background(), q, []mdm.AggOp{mdm.AggCount}, []string{"n"}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	c, err := coord.Scan(context.Background(), q, []mdm.AggOp{mdm.AggCount}, []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	if n := count(c.Cols); n != ds.Fact.Rows() {
		t.Fatalf("coordinator counted %d rows after the appends, the parent holds %d", n, ds.Fact.Rows())
	}
}

// BenchmarkLocalShardScan prices borrowing: each iteration times the
// same scan of shard 0 of a 2-shard split of the 300 000-row SSB fact,
// once as a local shard (the coordinator's columns read in place at the
// shard's positions) and once as a SplitFact copy, back to back.
// "local/split" is the median per-iteration ratio of the local shard's
// time to the copy's, and "local-ns" the local shard's own median time:
// a kernel change moves both sides, so the ratio alone can mislead. Two
// scans: a roll-up of every row, and one sliced to a year. Not gated: it
// records what borrowing costs a scan.
func BenchmarkLocalShardScan(b *testing.B) {
	ds := benchFact(b)
	level := AutoShardLevel(ds.Schema)
	lc := NewLocalCluster(2)
	if err := lc.AddFact("LINEORDER", ds.Fact, level); err != nil {
		b.Fatal(err)
	}
	split, err := FactShard(ds.Fact, level, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	copied := NewWorker()
	if err := copied.Register("LINEORDER", split); err != nil {
		b.Fatal(err)
	}
	year, _ := ds.Schema.FindLevel("year")
	for _, c := range []struct {
		name  string
		group []string
		preds []WirePred
	}{
		{"rollup", []string{"year", "cnation"}, nil},
		{"sliced", []string{"cnation"}, []WirePred{{Hier: year.Hier, Level: year.Level, Members: []int32{3}}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := &ScanRequest{
				Fact:     "LINEORDER",
				Group:    mdm.MustGroupBy(ds.Schema, c.group...),
				Preds:    c.preds,
				Measures: []int{0, 1, 2},
				Ops:      []int{int(mdm.AggSum), int(mdm.AggSum), int(mdm.AggSum)},
				Names:    benchNames,
			}
			timed := func(w *Worker) time.Duration {
				t0 := time.Now()
				if _, _, err := w.Scan(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				return time.Since(t0)
			}
			ratios := make([]float64, 0, b.N)
			locals := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				local := timed(lc.Workers[0])
				ratios = append(ratios, float64(local)/float64(timed(copied)))
				locals = append(locals, float64(local))
			}
			sort.Float64s(ratios)
			sort.Float64s(locals)
			b.ReportMetric(ratios[len(ratios)/2], "local/split")
			b.ReportMetric(locals[len(locals)/2], "local-ns")
		})
	}
}
