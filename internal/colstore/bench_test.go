package colstore

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/ssb"
	"github.com/assess-olap/assess/internal/storage"
)

// benchStore builds a compacted store with many segments: 1<<17 rows in
// 16 segments of 8192, hierarchy-0 keys ascending with row order so
// zone maps are selective.
func benchStore(b *testing.B) *Store {
	b.Helper()
	const rows, segRows = 1 << 17, 8192
	s := testSchema(b, 1024)
	st, err := Create(b.TempDir(), s, Options{SegmentRows: segRows, AutoCompactRows: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	keys, meas := genRows(s, rows, 7)
	appendRows(b, st, keys, meas)
	if err := st.Compact(); err != nil {
		b.Fatal(err)
	}
	return st
}

// scanAll decodes every non-pruned block and returns the row count.
func scanAll(b *testing.B, st *Store, preds []storage.LevelPred) int {
	src := st.scan(storage.ColSet{}, preds)
	defer src.Close()
	var sc storage.BlockScratch
	rows := 0
	for blk := 0; blk < src.Blocks(); blk++ {
		cols, ok, err := src.Block(blk, &sc)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			rows += cols.Rows
		}
	}
	return rows
}

// BenchmarkSegmentDecode measures full-store decode throughput: every
// segment read, CRC-checked, and unpacked into scan blocks.
func BenchmarkSegmentDecode(b *testing.B) {
	st := benchStore(b)
	total := st.Rows()
	b.SetBytes(int64(st.Info().DiskBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := scanAll(b, st, nil); got != total {
			b.Fatalf("scanned %d rows, want %d", got, total)
		}
	}
}

// BenchmarkWordDecode pits the word-at-a-time packed-key decoder
// against the per-slot reference (one unaligned word load, shift, and
// mask per value — the loop the kernels replaced) across representative
// dictionary-code widths, including one byte-aligned width (8) that
// takes the specialized path. Each iteration times both sides back to
// back per width, so host noise cancels out of the reported "speedup"
// (the median per-pair reference/word ratio) — the number
// scripts/bench.sh ratio gates on. ns/op covers both sides and is not
// meaningful on its own.
func BenchmarkWordDecode(b *testing.B) {
	const n = 1 << 16
	widths := []uint{5, 8, 10, 13, 17, 20}
	payloads := make([][]byte, len(widths))
	for i, w := range widths {
		p := make([]byte, packedLen(n, w))
		rng := rand.New(rand.NewSource(int64(w)))
		for j := 0; j < n; j++ {
			packU64(p, j, w, rng.Uint64()&(1<<w-1))
		}
		payloads[i] = p
	}
	word := make([]int32, n)
	ref := make([]int32, n)
	ratios := make([]float64, 0, b.N*len(widths))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for wi, w := range widths {
			p := payloads[wi]
			t0 := time.Now()
			unpackWordsKeys(word, 0, w, p)
			t1 := time.Now()
			for j := range ref {
				ref[j] = int32(unpackU64(p, j, w))
			}
			slot := time.Since(t1)
			if word[0] != ref[0] || word[n-1] != ref[n-1] {
				b.Fatalf("width %d: word decoder disagrees with per-slot reference", w)
			}
			ratios = append(ratios, float64(slot)/float64(t1.Sub(t0)))
		}
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup")
}

// BenchmarkZoneMapPrune measures a selective scan where zone maps skip
// 15 of 16 segments, and asserts (via the pruning metric) that the
// skipping actually happens — the benchmark is the metric-asserted
// pruning check of the acceptance criteria.
func BenchmarkZoneMapPrune(b *testing.B) {
	st := benchStore(b)
	// Base codes 0..7 live in the first segment only (1024 codes spread
	// over 16 segments in row order).
	preds := []storage.LevelPred{{Hier: 0, Level: 0, Members: []int32{0, 1, 2, 3, 4, 5, 6, 7}}}
	prunedBefore := mPruned.Value()
	if got, want := scanAll(b, st, preds), st.Rows()/16; got != want {
		b.Fatalf("decoded %d rows, want one segment (%d)", got, want)
	}
	if pruned := mPruned.Value() - prunedBefore; pruned != 15 {
		b.Fatalf("pruned %d segments, want 15", pruned)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, st, preds)
	}
}

// BenchmarkIndexedSelect pits the postings bitmap against the sweep it
// replaces on one 262 144-row column of 10 000 codes, at 0.1 % and 1 %
// selectivity (10 and 100 accepted codes — the brand and city slicers
// of the benchmark's cold_segment workload sit in between). Each
// iteration times both sides back to back — the postings side including
// the bitmap zeroing, the clip and the exact count the scan path does —
// so host noise cancels out of the reported "speedup" (the median
// per-pair linear/postings ratio), the number scripts/bench.sh ratio
// gates on. ns/op covers both sides and is not meaningful on its own.
func BenchmarkIndexedSelect(b *testing.B) {
	const rows, ncodes = 1 << 18, 10_000
	rng := rand.New(rand.NewSource(5))
	col := make([]int32, rows)
	for r := range col {
		col[r] = int32(rng.Intn(ncodes))
	}
	col[0], col[1] = 0, ncodes-1
	_, width, base, payload := encodeKeys(col)
	pm, section := buildPostings(col, 0)
	if err := pm.validate(section, rows); err != nil {
		b.Fatal(err)
	}
	var p postings
	p.view(&pm, int32(uint32(base)), section)
	for _, accepted := range []int{10, 100} {
		b.Run(map[int]string{10: "sel=0.1pct", 100: "sel=1pct"}[accepted], func(b *testing.B) {
			acc := make([]bool, ncodes)
			var codes []int32
			for _, c := range rng.Perm(ncodes)[:accepted] {
				acc[c] = true
			}
			for c, ok := range acc {
				if ok {
					codes = append(codes, int32(c))
				}
			}
			var sc storage.BlockScratch
			lin := make([]uint64, rows>>6)
			ratios := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				sel := sc.SelBuf(rows)
				clipped := p.clip(codes)
				n := p.count(clipped)
				p.fill(sel, clipped)
				t1 := time.Now()
				want := selInitPacked(lin, rows, acc, 0, uint(width), payload)
				sweep := time.Since(t1)
				if n != want || sel[0] != lin[0] || sel[len(sel)-1] != lin[len(lin)-1] {
					b.Fatalf("postings select %d rows, the sweep %d", n, want)
				}
				ratios = append(ratios, float64(sweep)/float64(t1.Sub(t0)))
			}
			sort.Float64s(ratios)
			b.ReportMetric(ratios[len(ratios)/2], "speedup")
		})
	}
}

// BenchmarkGatherCutoff is the sweep gatherCutoff is read off: on one
// 262 144-row segment's columns — a 14-bit packed key, a 23-bit FOR
// measure and a raw measure — and a uniform selection of 1 to 60 % of
// the rows, each iteration times the two ways a Filtered block can hand
// the selected rows over, back to back: gather-decode them densely, or
// decode every row and compact the column in place. Each column's
// median per-iteration compact/gather ratio is reported as
// "<column>-speedup" and the three columns together (what one cutoff
// decides for a block) as "speedup": above 1 gathering wins. ns/op
// covers both sides and is not meaningful on its own.
func BenchmarkGatherCutoff(b *testing.B) {
	const rows = 1 << 18
	rng := rand.New(rand.NewSource(9))
	keys := make([]int32, rows)
	forVals := make([]float64, rows)
	rawVals := make([]float64, rows)
	for r := range keys {
		keys[r] = int32(rng.Intn(1 << 14))
		forVals[r] = float64(rng.Intn(1 << 23))
		rawVals[r] = rng.Float64() * 1e6
	}
	type column struct {
		name       string
		enc, width uint8
		base       uint64
		payload    []byte
	}
	var cols [3]column
	cols[0].name = "key14"
	cols[0].enc, cols[0].width, cols[0].base, cols[0].payload = encodeKeys(keys)
	cols[1].name = "for23"
	cols[1].enc, cols[1].width, cols[1].base, cols[1].payload = encodeMeas(forVals)
	cols[2].name = "raw"
	cols[2].enc, cols[2].width, cols[2].base, cols[2].payload = encodeMeas(rawVals)
	if cols[0].enc != kencPacked || cols[0].width != 14 || cols[1].enc != mencFOR || cols[1].width != 23 || cols[2].enc != mencRaw {
		b.Fatalf("columns encode as %d/%d, %d/%d, %d", cols[0].enc, cols[0].width, cols[1].enc, cols[1].width, cols[2].enc)
	}
	for _, pct := range []int{1, 5, 15, 25, 40, 60, 80} {
		b.Run(fmt.Sprintf("sel=%dpct", pct), func(b *testing.B) {
			sel := make([]uint64, rows>>6)
			for r := 0; r < rows; r++ {
				if rng.Intn(100) < pct {
					sel[r>>6] |= 1 << uint(r&63)
				}
			}
			idx := selectedRows(nil, sel)
			kGather, kFull := make([]int32, len(idx)), make([]int32, rows)
			mGather, mFull := make([]float64, len(idx)), make([]float64, rows)
			ratios := make([][]float64, len(cols)+1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var gatherAll, compactAll time.Duration
				for c := range cols {
					col := &cols[c]
					t0 := time.Now()
					if c == 0 {
						gatherKeys(kGather, col.width, col.base, col.payload, idx)
					} else {
						gatherMeas(mGather, col.enc, col.width, col.base, col.payload, idx)
					}
					t1 := time.Now()
					if c == 0 {
						decodeKeys(kFull, col.enc, col.width, col.base, col.payload)
						if got := compact(kFull, idx); got[len(got)-1] != kGather[len(idx)-1] {
							b.Fatalf("%s: compacted %d, gathered %d", col.name, got[len(got)-1], kGather[len(idx)-1])
						}
					} else {
						decodeMeas(mFull, col.enc, col.width, col.base, col.payload)
						if got := compact(mFull, idx); got[len(got)-1] != mGather[len(idx)-1] {
							b.Fatalf("%s: compacted %v, gathered %v", col.name, got[len(got)-1], mGather[len(idx)-1])
						}
					}
					gather, full := t1.Sub(t0), time.Since(t1)
					gatherAll, compactAll = gatherAll+gather, compactAll+full
					ratios[c] = append(ratios[c], float64(full)/float64(gather))
				}
				ratios[len(cols)] = append(ratios[len(cols)], float64(compactAll)/float64(gatherAll))
			}
			for c, rs := range ratios {
				sort.Float64s(rs)
				unit := "speedup"
				if c < len(cols) {
					unit = cols[c].name + "-speedup"
				}
				b.ReportMetric(rs[len(rs)/2], unit)
			}
		})
	}
}

// BenchmarkStoreAppend appends rows one at a time, as a writer beside a
// dashboard does, on each WAL write path, and reports ns/row. A fresh
// store every 1<<16 rows (outside the timer) keeps the tail and the log
// small whatever b.N is.
func BenchmarkStoreAppend(b *testing.B) {
	for _, mapped := range []bool{true, false} {
		name := "mapped"
		if !mapped {
			name = "positional"
		}
		b.Run(name, func(b *testing.B) {
			const batch = 1 << 16
			s := testSchema(b, 500)
			keys, meas := genRows(s, batch, 1)
			row, vals := make([]int32, 2), make([]float64, 2)
			var st *Store
			fresh := func() {
				if st != nil {
					st.Close()
					os.RemoveAll(st.dir)
				}
				dir, err := os.MkdirTemp(b.TempDir(), "store")
				if err != nil {
					b.Fatal(err)
				}
				if st, err = Create(dir, s, Options{AutoCompactRows: -1}); err != nil {
					b.Fatal(err)
				}
				if !mapped {
					st.positionalWAL()
				}
			}
			fresh()
			defer func() { st.Close() }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % batch
				if r == 0 && i > 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				row[0], row[1], vals[0], vals[1] = keys[0][r], keys[1][r], meas[0][r], meas[1][r]
				if err := st.Append(row, vals); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}

// benchSelectiveEngines builds two segment-backed copies of the same
// SSB fact, each behind an engine: one late-materialized (production:
// predicates evaluated on packed codes, measures gather-decoded under
// the selection), one decoding eagerly (row-level filtering off,
// zone-map pruning only, the pre-late-materialization pipeline). The
// predicate selects one of 1000 brands (~300 of 300k rows) whose rows
// are spread uniformly, so zone maps prune nothing for either store and
// the entire gap is row-level work.
func benchSelectiveEngines(b *testing.B) (lazy, eager *engine.Engine, q engine.Query) {
	b.Helper()
	ds := ssb.Generate(0.05, 42) // 300k rows
	opts := Options{SegmentRows: 1 << 16, AutoCompactRows: -1}
	build := func(eagerDecode bool) *engine.Engine {
		dir := b.TempDir()
		w, err := CreateBulk(dir, ds.Schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AppendBlock(storage.BlockCols{Keys: ds.Fact.Keys, Meas: ds.Fact.Meas, Rows: ds.Fact.Rows()}); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		if eagerDecode {
			st.decodeEagerly()
		}
		e := engine.New()
		if err := e.Register("LINEORDER", storage.NewSegmentTable(st.Schema(), st)); err != nil {
			b.Fatal(err)
		}
		return e
	}
	lazy, eager = build(false), build(true)
	ri, _ := ds.Schema.MeasureIndex("revenue")
	qi, _ := ds.Schema.MeasureIndex("quantity")
	ci, _ := ds.Schema.MeasureIndex("supplycost")
	q = engine.Query{
		Fact:     "LINEORDER",
		Group:    mdm.MustGroupBy(ds.Schema, "year"),
		Preds:    []engine.Predicate{{Level: mdm.MustGroupBy(ds.Schema, "brand")[0], Members: []int32{77}}},
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
