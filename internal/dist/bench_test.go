package dist

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// benchDataset caches the SSB fact across benchmarks: generation is
// seconds-scale and identical for every cluster shape.
var benchDataset = struct {
	once sync.Once
	ds   *ssb.Dataset
}{}

func benchFact(b *testing.B) *ssb.Dataset {
	b.Helper()
	benchDataset.once.Do(func() { benchDataset.ds = ssb.Generate(0.05, 42) }) // 300k rows
	return benchDataset.ds
}

// benchCluster shards the 300k-row SSB fact by brand into n
// segment-backed workers (small segments, as an out-of-core deployment
// would run them) and returns a coordinator over the cluster. Sharding
// by brand clusters each brand's rows on exactly one worker, so a
// brand-equality query routes to 1 of n shards — on a single core
// that routing, not parallelism, is the speedup.
func benchCluster(b *testing.B, n int) (*Coordinator, *mdm.Schema) {
	b.Helper()
	ds := benchFact(b)
	level, ok := ds.Schema.FindLevel("brand")
	if !ok {
		b.Fatal("ssb schema has no brand level")
	}
	shards, err := SplitFact(ds.Fact, level, n)
	if err != nil {
		b.Fatal(err)
	}

	opts := colstore.Options{SegmentRows: 1 << 12, AutoCompactRows: -1}
	w := make([]*Worker, n)
	for i, sf := range shards {
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("shard%d", i))
		if err := persist.SaveCubeDir(dir, sf, opts); err != nil {
			b.Fatal(err)
		}
		seg, st, err := persist.OpenCubeDir(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		// The reopened copy decodes its own hierarchy objects; scans and
		// merges must speak the coordinator's schema.
		persist.ReconcileSchemas(ds.Schema, seg.Schema)
		w[i] = NewWorker()
		if err := w[i].Register("LINEORDER", seg); err != nil {
			b.Fatal(err)
		}
	}

	eng := engine.New()
	if err := eng.Register("LINEORDER", ds.Fact); err != nil {
		b.Fatal(err)
	}
	coord := NewCoordinator(eng, Config{ShardTimeout: time.Minute})
	chains := make([][]ShardClient, n)
	for i := range chains {
		chains[i] = []ShardClient{&LocalClient{Worker: w[i], Name: fmt.Sprintf("bench/%d", i)}}
	}
	if err := coord.AddTable("LINEORDER", level, chains, false); err != nil {
		b.Fatal(err)
	}
	return coord, ds.Schema
}

// benchRoutedQueries is the dashboard burst the speedup benchmark
// replays: 8 distinct roll-ups, each sliced to one brand. On an
// n-shard cluster each routes to the single shard owning that brand
// (~1/n of the fact); a 1-shard cluster scans everything every time.
func benchRoutedQueries(s *mdm.Schema) []engine.Query {
	brand, _ := s.FindLevel("brand")
	nBrands := int32(s.Dict(brand).Len())
	groups := [][]string{
		{"year", "cnation"}, {"month", "cregion"}, {"cnation", "snation"},
		{"cregion", "year"}, {"snation", "month"}, {"year", "category"},
		{"category", "snation"}, {"cnation", "mfgr"},
	}
	qs := make([]engine.Query, len(groups))
	for i, g := range groups {
		qs[i] = engine.Query{
			Fact:  "LINEORDER",
			Group: mdm.MustGroupBy(s, g...),
			Preds: []engine.Predicate{{
				Level:   brand,
				Members: []int32{int32(i*131+7) % nBrands},
			}},
			Measures: []int{0, 1, 2},
		}
	}
	return qs
}

var benchOps = []mdm.AggOp{mdm.AggSum, mdm.AggSum, mdm.AggSum}
var benchNames = []string{"quantity", "revenue", "supplycost"}

func runQueries(b *testing.B, c *Coordinator, qs []engine.Query) {
	b.Helper()
	for _, q := range qs {
		if _, err := c.Scan(context.Background(), q, benchOps, benchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedScan is the full-fanout cost: an unpredicated
// roll-up over a 4-shard cluster scatter-gathers to every shard and
// merges the partials — the scatter and merge overhead on top of the
// same total row count a solo scan pays. Its workers are in-process, so
// no reply is framed.
func BenchmarkShardedScan(b *testing.B) {
	coord, s := benchCluster(b, 4)
	q := engine.Query{
		Fact:     "LINEORDER",
		Group:    mdm.MustGroupBy(s, "year", "cnation"),
		Measures: []int{0, 1, 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Scan(context.Background(), q, benchOps, benchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSpeedup measures what sharding buys a routed
// dashboard burst as a paired ratio: each iteration times the 8
// brand-sliced queries on a 4-shard cluster (each routed to ~1/4 of
// the fact) and on a 1-shard cluster (every query scans everything)
// back to back, so host noise cancels out of the reported "speedup"
// metric (median of per-iteration ratios — host-speed independent and
// meaningful at GOMAXPROCS=1, where the win is shard routing, not CPU
// parallelism). Gated in CI at >= 2x by scripts/bench.sh ratio.
func BenchmarkShardedSpeedup(b *testing.B) {
	coord4, s := benchCluster(b, 4)
	coord1, _ := benchCluster(b, 1)
	qs := benchRoutedQueries(s)
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runQueries(b, coord4, qs)
		t1 := time.Now()
		runQueries(b, coord1, qs)
		ratios = append(ratios, float64(time.Since(t1))/float64(t1.Sub(t0)))
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup")
}

// BenchmarkShardMerge is the coordinator's combine alone — two shards'
// replies, three SUM columns, handed to engine.Combine — at the three
// result shapes of the cold_sharded workload: 175 cells that both shards
// hold in full (year × nation, 7 × 25), 42 000 cells split between the
// shards (customer × year under customer sharding, 6 000 × 7), and
// 82 061 cells scattered over a 200 000-slot key space with a third of
// them on both shards.
func BenchmarkShardMerge(b *testing.B) {
	for _, shape := range []struct {
		cells, a, c int
		both        float64 // share of the cells both shards hold
	}{{175, 7, 25, 1}, {42000, 6000, 7, 0}, {82061, 8000, 25, 0.33}} {
		b.Run(fmt.Sprintf("cells=%d", shape.cells), func(b *testing.B) {
			hiers := []*mdm.Hierarchy{mdm.NewHierarchy("A", "a"), mdm.NewHierarchy("C", "c")}
			for i := 0; i < shape.a; i++ {
				hiers[0].MustAddMember(fmt.Sprint(i))
			}
			for i := 0; i < shape.c; i++ {
				hiers[1].MustAddMember(fmt.Sprint(i))
			}
			s := mdm.NewSchema("M", hiers, []mdm.Measure{{Name: "x", Op: mdm.AggSum}, {Name: "y", Op: mdm.AggSum}, {Name: "z", Op: mdm.AggSum}})
			eng := engine.New()
			if err := eng.Register("M", storage.NewFactTable(s)); err != nil {
				b.Fatal(err)
			}
			g := mdm.GroupBy{{Hier: 0}, {Hier: 1}}
			plan := engine.Decompose([]int{0, 1, 2}, benchOps)
			rng := rand.New(rand.NewSource(1))
			var keys [2][]int
			for _, key := range rng.Perm(shape.a * shape.c)[:shape.cells] {
				switch on := rng.Float64(); {
				case on < shape.both:
					keys[0], keys[1] = append(keys[0], key), append(keys[1], key)
				default:
					sh := shardOf(int32(key/shape.c), 2)
					keys[sh] = append(keys[sh], key)
				}
			}
			parts := make([]*cube.Cube, 2)
			for i := range parts {
				// A shard replies in ascending key order.
				slices.Sort(keys[i])
				n := len(keys[i])
				ids := [][]int32{make([]int32, n), make([]int32, n)}
				for r, key := range keys[i] {
					ids[0][r], ids[1][r] = int32(key/shape.c), int32(key%shape.c)
				}
				cols := make([][]float64, 3)
				for j := range cols {
					cols[j] = make([]float64, n)
					for r := range cols[j] {
						cols[j][r] = float64(rng.Intn(1 << 20))
					}
				}
				var err error
				if parts[i], err = cube.Build(s, g, []string{"p0", "p1", "p2"}, n, ids, cols); err != nil {
					b.Fatal(err)
				}
			}
			q := engine.Query{Fact: "M", Group: g, Measures: []int{0, 1, 2}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := eng.Combine(context.Background(), q, plan, benchNames, parts)
				if err != nil || out.Len() != shape.cells {
					b.Fatalf("%v: %d cells", err, out.Len())
				}
			}
		})
	}
}
