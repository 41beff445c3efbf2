package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/ssb"
)

// Engine micro-benchmarks: the fact scan, the view filter, the cursor
// transfer, the aggregation kernels, and morsel/merge scaling.

func benchDataset(b *testing.B) (*Engine, *mdm.Schema, Query) {
	b.Helper()
	ds := ssb.Generate(0.05, 42) // 300k rows
	e := New()
	if err := e.Register("LINEORDER", ds.Fact); err != nil {
		b.Fatal(err)
	}
	ri, _ := ds.Schema.MeasureIndex("revenue")
	q := Query{
		Fact:     "LINEORDER",
		Group:    mdm.MustGroupBy(ds.Schema, "customer", "year"),
		Measures: []int{ri},
	}
	return e, ds.Schema, q
}

func BenchmarkScanAggregate(b *testing.B) {
	e, _, q := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanAggregateParallel(b *testing.B) {
	e, _, q := benchDataset(b)
	e.SetParallelism(0) // all cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewAggregate(b *testing.B) {
	e, _, q := benchDataset(b)
	if err := e.Materialize("LINEORDER", q.Group); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDense measures the serial dense-key kernel on a
// dense-eligible shape (customer × year ≈ 10k slots, well under the
// default budget).
func BenchmarkKernelDense(b *testing.B) {
	e, _, q := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelHash is the same scan with the dense budget at zero:
// every key goes through the slot table, for comparison with
// BenchmarkKernelDense.
func BenchmarkKernelHash(b *testing.B) {
	e, _, q := benchDataset(b)
	e.SetDenseKeyBudget(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorselScaling sweeps the worker count over a scan-dominated
// shape (group by year: 7 output cells, so cell materialization and
// transfer are negligible) with small morsels, showing how the shared
// morsel cursor scales.
func BenchmarkMorselScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e, s, q := benchDataset(b)
			q.Group = mdm.MustGroupBy(s, "year")
			e.SetParallelism(w)
			e.SetParallelMinRows(8192)
			e.SetMorselSize(16384)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Get(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeTree measures the log-depth merge of slot-table
// partials in isolation: 16 worker partials of 4096 cells each over
// 8192 distinct keys, rebuilt outside the timed region.
func BenchmarkMergeTree(b *testing.B) {
	const workers, cells = 16, 4096
	sq := mergeQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		parts := mergeParts(sq, workers, cells)
		b.StartTimer()
		if got := sq.mergeTree(parts); len(got.keys) != 2*cells {
			b.Fatalf("merged %d cells, want %d", len(got.keys), 2*cells)
		}
	}
}

// navDataset builds a sales engine at the given fact-row scale for the
// aggregate-navigator benchmarks.
func navDataset(b *testing.B, rows int) (*Engine, *mdm.Schema) {
	b.Helper()
	ds := sales.Generate(rows, 47)
	e := New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		b.Fatal(err)
	}
	return e, ds.Schema
}

// BenchmarkViewRollup pits the navigator's roll-up path — a coarse
// query answered by re-aggregating a strictly finer view's cells —
// against the plain fact scan of the same query, at two scales. The
// sub-benchmark names stay dash-free so scripts/bench.sh check can
// match them against the committed baseline.
func BenchmarkViewRollup(b *testing.B) {
	for _, rows := range []int{50_000, 500_000} {
		label := fmt.Sprintf("rows=%dk", rows/1000)
		e, s := navDataset(b, rows)
		qi, _ := s.MeasureIndex("quantity")
		q := Query{Fact: "SALES", Group: mdm.MustGroupBy(s, "category", "country"), Measures: []int{qi}}
		b.Run(label+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Get(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := e.Materialize("SALES", mdm.MustGroupBy(s, "product", "month", "country")); err != nil {
			b.Fatal(err)
		}
		b.Run(label+"/view", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Get(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggNavigator measures the navigator's dispatch over a mixed
// query stream with a small view lattice installed: an exact view hit,
// a roll-up from a finer view, and an uncovered query that falls back
// to the fact scan.
func BenchmarkAggNavigator(b *testing.B) {
	for _, rows := range []int{50_000, 500_000} {
		b.Run(fmt.Sprintf("rows=%dk", rows/1000), func(b *testing.B) {
			e, s := navDataset(b, rows)
			qi, _ := s.MeasureIndex("quantity")
			for _, g := range [][]string{{"product", "country"}, {"product", "month"}} {
				if err := e.Materialize("SALES", mdm.MustGroupBy(s, g...)); err != nil {
					b.Fatal(err)
				}
			}
			queries := []Query{
				{Fact: "SALES", Group: mdm.MustGroupBy(s, "product", "country"), Measures: []int{qi}}, // exact hit
				{Fact: "SALES", Group: mdm.MustGroupBy(s, "type", "country"), Measures: []int{qi}},    // roll-up
				{Fact: "SALES", Group: mdm.MustGroupBy(s, "gender"), Measures: []int{qi}},             // miss → scan
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Get(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCursorTransfer(b *testing.B) {
	e, _, q := benchDataset(b)
	c, err := e.aggregate(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transfer(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Len()), "cells")
}

// benchSegmentDataset is benchDataset rebuilt on the out-of-core
// backend: the same SSB fact served from a columnar segment directory,
// so every Get decodes segments from disk (cold scan; the OS page cache
// is warm, the decoded columns are not retained between queries).
func benchSegmentDataset(b *testing.B) (*Engine, Query) {
	b.Helper()
	e, seg := benchSegmentEngine(b)
	ri, _ := seg.MeasureIndex("revenue")
	return e, Query{
		Fact:     "LINEORDER",
		Group:    mdm.MustGroupBy(seg, "customer", "year"),
		Measures: []int{ri},
	}
}

func benchSegmentEngine(b *testing.B) (*Engine, *mdm.Schema) {
	b.Helper()
	ds := ssb.Generate(0.05, 42) // 300k rows
	dir := b.TempDir()
	opts := colstore.Options{SegmentRows: 1 << 16, AutoCompactRows: -1}
	if err := persist.SaveCubeDir(dir, ds.Fact, opts); err != nil {
		b.Fatal(err)
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	e := New()
	if err := e.Register("LINEORDER", seg); err != nil {
		b.Fatal(err)
	}
	return e, seg.Schema
}

// BenchmarkColdScan is BenchmarkScanAggregate over the segment backend:
// the out-of-core scan the ISSUE targets at within ~2-3x of resident.
func BenchmarkColdScan(b *testing.B) {
	e, q := benchSegmentDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdScanParallel adds morsel-parallel block stealing across
// segments.
func BenchmarkColdScanParallel(b *testing.B) {
	e, q := benchSegmentDataset(b)
	e.SetParallelism(0) // all cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSelectiveEngines builds two segment-backed copies of the same
// SSB fact: one late-materialized (the default — predicates evaluated
// on packed codes, measures gather-decoded under the selection), one
// with Eager set (row-level filtering off, zone-map pruning only — the
// pre-late-materialization pipeline). The predicate selects one of
// 1000 brands (~300 of 300k rows) whose rows are spread uniformly, so
// zone maps prune nothing for either store and the entire gap is
// row-level work.
func benchSelectiveEngines(b *testing.B) (lazy, eager *Engine, q Query) {
	b.Helper()
	ds := ssb.Generate(0.05, 42) // 300k rows
	build := func(opts colstore.Options) *Engine {
		dir := b.TempDir()
		if err := persist.SaveCubeDir(dir, ds.Fact, opts); err != nil {
			b.Fatal(err)
		}
		seg, st, err := persist.OpenCubeDir(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		e := New()
		if err := e.Register("LINEORDER", seg); err != nil {
			b.Fatal(err)
		}
		return e
	}
	lazy = build(colstore.Options{SegmentRows: 1 << 16, AutoCompactRows: -1})
	eager = build(colstore.Options{SegmentRows: 1 << 16, AutoCompactRows: -1, Eager: true})
	ri, _ := ds.Schema.MeasureIndex("revenue")
	qi, _ := ds.Schema.MeasureIndex("quantity")
	ci, _ := ds.Schema.MeasureIndex("supplycost")
	q = Query{
		Fact:     "LINEORDER",
		Group:    mdm.MustGroupBy(ds.Schema, "year"),
		Preds:    []Predicate{{Level: mdm.MustGroupBy(ds.Schema, "brand")[0], Members: []int32{77}}},
		Measures: []int{ri, qi, ci},
	}
	return lazy, eager, q
}

// BenchmarkSelectiveColdScan measures what late materialization buys a
// selective cold scan, as a paired ratio: each iteration runs the same
// low-selectivity query against the lazy store and the eager store back
// to back, and "speedup" is the median per-iteration eager/lazy ratio
// (host-speed independent; the number scripts/bench.sh ratio gates on).
// ns/op covers both sides and is not meaningful on its own.
func BenchmarkSelectiveColdScan(b *testing.B) {
	lazy, eager, q := benchSelectiveEngines(b)
	lc, err := lazy.Get(q)
	if err != nil {
		b.Fatal(err)
	}
	ec, err := eager.Get(q)
	if err != nil {
		b.Fatal(err)
	}
	if lc.Len() == 0 || lc.Len() != ec.Len() {
		b.Fatalf("lazy store returned %d cells, eager %d", lc.Len(), ec.Len())
	}
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := lazy.Get(q); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := eager.Get(q); err != nil {
			b.Fatal(err)
		}
		ratios = append(ratios, float64(time.Since(t1))/float64(t1.Sub(t0)))
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup")
}

// BenchmarkViewRefresh measures what absorbing an append by delta buys
// over rebuilding the view, as a paired ratio: on a segment-backed SSB
// fact of 1.2 M rows with a (cnation, year) view, each iteration appends
// 10 000 rows, times the read of one tile (which finds the view stale and
// refreshes it from the rows past its mark), then times a build of the
// same view from row 0 plus the same read off it — what that read cost
// before. "speedup" is the median per-iteration rebuild/refresh ratio
// (host-speed independent; the number scripts/bench.sh ratio gates on).
// ns/op covers both sides and is not meaningful on its own.
func BenchmarkViewRefresh(b *testing.B) {
	ds := ssb.Generate(0.2, 42) // 1.2 M rows
	f, _ := segmentFact(b, ds.Fact, colstore.Options{AutoCompactRows: -1})
	e := New()
	if err := e.Register("LINEORDER", f); err != nil {
		b.Fatal(err)
	}
	ri, _ := f.Schema.MeasureIndex("revenue")
	q := Query{Fact: "LINEORDER", Group: mdm.MustGroupBy(f.Schema, "cnation", "year"), Measures: []int{ri}}
	if err := e.Materialize(q.Fact, q.Group); err != nil {
		b.Fatal(err)
	}
	keys := make([]int32, len(ds.Fact.Keys))
	vals := make([]float64, len(ds.Fact.Meas))
	refreshed, rebuilt := mViewRefreshed.Value(), mViewRebuilt.Value()
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := i * 10000; r < (i+1)*10000; r++ {
			for h := range keys {
				keys[h] = ds.Fact.Keys[h][r%ds.Fact.Rows()]
			}
			for m := range vals {
				vals[m] = ds.Fact.Meas[m][r%ds.Fact.Rows()]
			}
			if err := f.Append(keys, vals); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		if _, err := e.Get(q); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		v, err := e.buildView(q.Fact, f, q.Group, false)
		if err != nil {
			b.Fatal(err)
		}
		c, err := aggregateFromView(v, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transfer(c); err != nil {
			b.Fatal(err)
		}
		ratios = append(ratios, float64(time.Since(t1))/float64(t1.Sub(t0)))
	}
	b.StopTimer()
	if d := mViewRefreshed.Value() - refreshed; d != int64(b.N) || mViewRebuilt.Value() != rebuilt {
		b.Fatalf("%d reads refreshed the view %d times and rebuilt it %d times", b.N, d, mViewRebuilt.Value()-rebuilt)
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup")
}
