package colstore

import (
	"testing"

	"github.com/assess-olap/assess/internal/storage"
)

// pruneFixture builds a store whose hierarchy-0 base keys ascend with
// row order, so each of its segments covers a disjoint code range —
// exact zone maps at the base level, 10:1 coarser ranges at the mid
// level.
func pruneFixture(t *testing.T) *Store {
	t.Helper()
	s := testSchema(t, 500)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 250, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	keys, meas := genRows(s, 1000, 42) // 4 segments × 250 rows, 125 base codes each
	appendRows(t, st, keys, meas)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Info().Segments; got != 4 {
		t.Fatalf("fixture segments = %d, want 4", got)
	}
	return st
}

// scanCount drives a full scan with the given predicates and returns
// (decoded, pruned, matchedRows) observed via the source and metrics.
func scanCount(t *testing.T, st *Store, preds []storage.LevelPred) (decoded, pruned, rows int) {
	t.Helper()
	prunedBefore := mPruned.Value()
	src := st.scan(storage.ColSet{}, preds)
	defer src.Close()
	var sc storage.BlockScratch
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		if b < src.Blocks()-1 {
			decoded++
		}
		rows += cols.Rows
	}
	pruned = int(mPruned.Value() - prunedBefore)
	return decoded, pruned, rows
}

func TestZoneMapPruning(t *testing.T) {
	st := pruneFixture(t)

	t.Run("selective-base-level", func(t *testing.T) {
		// Base codes 0..9 live only in segment 0.
		members := make([]int32, 10)
		for i := range members {
			members[i] = int32(i)
		}
		decoded, pruned, _ := scanCount(t, st, []storage.LevelPred{{Hier: 0, Level: 0, Members: members}})
		if decoded != 1 || pruned != 3 {
			t.Fatalf("decoded=%d pruned=%d, want 1/3", decoded, pruned)
		}
	})

	t.Run("mid-level", func(t *testing.T) {
		// Mid code 30 covers base 300..309 → rows 600..619, segment 2 only.
		decoded, pruned, _ := scanCount(t, st, []storage.LevelPred{{Hier: 0, Level: 1, Members: []int32{30}}})
		if decoded != 1 || pruned != 3 {
			t.Fatalf("decoded=%d pruned=%d, want 1/3", decoded, pruned)
		}
	})

	t.Run("boundary-straddling", func(t *testing.T) {
		// Base codes 124 and 125 straddle the segment 0/1 boundary
		// (125 base codes per segment).
		decoded, pruned, _ := scanCount(t, st, []storage.LevelPred{{Hier: 0, Level: 0, Members: []int32{124, 125}}})
		if decoded != 2 || pruned != 2 {
			t.Fatalf("decoded=%d pruned=%d, want 2/2", decoded, pruned)
		}
	})

	t.Run("all-pruned", func(t *testing.T) {
		// No base code 9999 exists anywhere... use an id inside the
		// dictionary but outside every zone range: impossible here since
		// rows cover all codes, so prune via an empty member set.
		decoded, pruned, rows := scanCount(t, st, []storage.LevelPred{{Hier: 0, Level: 0, Members: nil}})
		if decoded != 0 || pruned != 4 || rows != 0 {
			t.Fatalf("decoded=%d pruned=%d rows=%d, want 0/4/0", decoded, pruned, rows)
		}
	})

	t.Run("none-pruned", func(t *testing.T) {
		// A predicate on the unordered hierarchy hits every segment.
		decoded, pruned, _ := scanCount(t, st, []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7}}})
		if decoded != 4 || pruned != 0 {
			t.Fatalf("decoded=%d pruned=%d, want 4/0", decoded, pruned)
		}
	})

	t.Run("conjunction", func(t *testing.T) {
		// One prunable predicate among several: still prunes.
		decoded, pruned, _ := scanCount(t, st, []storage.LevelPred{
			{Hier: 1, Level: 0, Members: []int32{7}},
			{Hier: 0, Level: 1, Members: []int32{0, 1}}, // mid 0..1 → segment 0
		})
		if decoded != 1 || pruned != 3 {
			t.Fatalf("decoded=%d pruned=%d, want 1/3", decoded, pruned)
		}
	})
}

// TestPruningIsExactlyNecessary checks the contract that pruning is a
// pure optimization: a pruned-scan aggregate equals the unpruned one.
func TestPruningIsExactlyNecessary(t *testing.T) {
	st := pruneFixture(t)
	preds := []storage.LevelPred{{Hier: 0, Level: 1, Members: []int32{3, 17, 44}}}
	// Sum measure 0 over accepted rows, once with pruning hints and
	// once without, applying the row filter manually both times.
	accept := func(code int32) bool {
		mid := code / 10
		return mid == 3 || mid == 17 || mid == 44
	}
	sum := func(preds []storage.LevelPred) float64 {
		src := st.scan(storage.ColSet{}, preds)
		defer src.Close()
		var sc storage.BlockScratch
		total := 0.0
		for b := 0; b < src.Blocks(); b++ {
			cols, ok, err := src.Block(b, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			for r := 0; r < cols.Rows; r++ {
				// Unselected slots of a block that carries a bitmap
				// hold garbage, the predicate column's included.
				if cols.Sel != nil && !cols.Selected(r) {
					continue
				}
				if accept(cols.Keys[0][r]) {
					total += cols.Meas[0][r]
				}
			}
		}
		return total
	}
	if hinted, full := sum(preds), sum(nil); hinted != full {
		t.Fatalf("pruned scan sum %v != full scan sum %v", hinted, full)
	}
}

func TestEncodingRoundTrips(t *testing.T) {
	keyCases := [][]int32{
		{5, 5, 5, 5},          // const
		{0, 1, 2, 3, 1000, 7}, // packed
		{1 << 30, 0, 5},       // wide packed
	}
	for i, c := range keyCases {
		enc, width, base, payload := encodeKeys(c)
		got := make([]int32, len(c))
		decodeKeys(got, enc, width, base, payload)
		for r := range c {
			if got[r] != c[r] {
				t.Fatalf("key case %d row %d: got %d want %d", i, r, got[r], c[r])
			}
		}
	}
	measCases := [][]float64{
		{2.5, 2.5, 2.5},           // const
		{1, 2, 3, 50, 7},          // FOR int
		{100, 101, 102, 103, 104}, // delta-friendly
		{-12, 40, -7, 0},          // negative integral
		{1.5, 2.25, -0.75},        // fractional → raw
		{1e15, -1e15, 3},          // wide integral → raw fallback path
		{0, -0.0000001, 55.5},     // mixed
	}
	for i, c := range measCases {
		enc, width, base, payload := encodeMeas(c)
		got := make([]float64, len(c))
		decodeMeas(got, enc, width, base, payload)
		for r := range c {
			if got[r] != c[r] {
				t.Fatalf("meas case %d (enc %d) row %d: got %v want %v", i, enc, r, got[r], c[r])
			}
		}
	}
}
