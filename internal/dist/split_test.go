package dist

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// splitRows is the row-at-a-time split, kept as SplitFact's reference:
// every row of f, in order, appended on its own to the shard its member
// at level hashes to.
func splitRows(f *storage.FactTable, level mdm.LevelRef, n int) ([]*storage.FactTable, error) {
	shards := make([]*storage.FactTable, n)
	for i := range shards {
		shards[i] = storage.NewFactTable(f.Schema)
	}
	member := f.Schema.Hiers[level.Hier].LevelMap(0, level.Level)
	keys := make([]int32, f.NumHiers())
	vals := make([]float64, f.NumMeasures())
	src := f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	err := storage.ForBlocks(src, func(b storage.BlockCols) error {
		for r := 0; r < b.Rows; r++ {
			for h := range keys {
				keys[h] = b.Keys[h][r]
			}
			for m := range vals {
				vals[m] = b.Meas[m][r]
			}
			if err := shards[shardOf(member[keys[level.Hier]], n)].Append(keys, vals); err != nil {
				return err
			}
		}
		return nil
	})
	return shards, err
}

// sameTable reports how two resident tables differ — rows, order,
// measure bits or Version — or "" when they do not.
func sameTable(got, want *storage.FactTable) string {
	if got.Rows() != want.Rows() || got.Version() != want.Version() {
		return fmt.Sprintf("%d rows at version %d, want %d at %d", got.Rows(), got.Version(), want.Rows(), want.Version())
	}
	for h := range want.Keys {
		if !slices.Equal(got.Keys[h], want.Keys[h]) {
			return fmt.Sprintf("key column %d differs", h)
		}
	}
	for m := range want.Meas {
		for r, v := range want.Meas[m] {
			if math.Float64bits(got.Meas[m][r]) != math.Float64bits(v) {
				return fmt.Sprintf("measure %d row %d: %v, want %v", m, r, got.Meas[m][r], v)
			}
		}
	}
	return ""
}

// TestSplitFactMatchesRowLoop: the columnar split leaves every shard
// identical to the row loop's — rows, order, bits and Version — over a
// resident fact longer than one scatter chunk and over a segment-backed
// one of many blocks, at base and rolled-up shard levels; and FactShard
// builds each shard alone identically.
func TestSplitFactMatchesRowLoop(t *testing.T) {
	ds := ssb.Generate(0.02, 5) // 120 000 rows: two chunks
	if ds.Fact.Rows() <= splitChunk {
		t.Fatalf("%d rows fit one chunk of %d", ds.Fact.Rows(), splitChunk)
	}
	dir := filepath.Join(t.TempDir(), "LINEORDER")
	opts := colstore.Options{SegmentRows: 1 << 13, AutoCompactRows: -1}
	if err := persist.SaveCubeDir(dir, ds.Budget, opts); err != nil {
		t.Fatal(err)
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range []struct {
		name  string
		fact  *storage.FactTable
		level string
	}{
		{"resident", ds.Fact, "customer"},
		{"resident", ds.Fact, "cnation"},
		{"segments", seg, "part"},
		{"segments", seg, "year"},
	} {
		level, ok := c.fact.Schema.FindLevel(c.level)
		if !ok {
			t.Fatalf("no level %s", c.level)
		}
		for _, n := range []int{1, 2, 3} {
			name := fmt.Sprintf("%s/%s/%d", c.name, c.level, n)
			got, err := SplitFact(c.fact, level, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := splitRows(c.fact, level, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := sameTable(got[i], want[i]); d != "" {
					t.Errorf("%s: SplitFact shard %d: %s", name, i, d)
				}
				one, err := FactShard(c.fact, level, n, i)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameTable(one, want[i]); d != "" {
					t.Errorf("%s: FactShard %d: %s", name, i, d)
				}
			}
		}
	}
	for _, i := range []int{-1, 2} {
		if _, err := FactShard(ds.Fact, AutoShardLevel(ds.Schema), 2, i); err == nil {
			t.Errorf("FactShard %d of 2 accepted", i)
		}
	}
}

// BenchmarkSplitFact splits a 300 000-row SSB fact over two shards at
// its automatic level, as the cold_sharded deployment does; "speedup" is
// the median per-iteration ratio of the row-loop reference's time to the
// columnar split's, timed back to back so host noise cancels out.
func BenchmarkSplitFact(b *testing.B) {
	ds := benchFact(b)
	level := AutoShardLevel(ds.Schema)
	timed := func(split func(*storage.FactTable, mdm.LevelRef, int) ([]*storage.FactTable, error)) time.Duration {
		t0 := time.Now()
		if _, err := split(ds.Fact, level, 2); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		ref := timed(splitRows)
		ratios = append(ratios, float64(ref)/float64(timed(SplitFact)))
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup")
}
