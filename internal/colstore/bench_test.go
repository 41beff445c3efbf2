package colstore

import (
	"math/rand"
	"sort"
	"testing"
	"time"

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
