package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// blocksSource serves rows 0..n-1 of a one-key, one-measure table (key r%7,
// measure r) cut into blocks of the given sizes, and records which blocks
// were decoded. A positive filtered marks that block as filtered by the
// backend; scratch decodes into the caller's scratch, as a segment does,
// instead of into fresh columns.
type blocksSource struct {
	sizes    []int
	filtered int
	scratch  bool
	decoded  []int
	closed   bool
}

func (s *blocksSource) Rows() int {
	n := 0
	for _, sz := range s.sizes {
		n += sz
	}
	return n
}
func (s *blocksSource) Blocks() int         { return len(s.sizes) }
func (s *blocksSource) BlockRows(b int) int { return s.sizes[b] }
func (s *blocksSource) Close()              { s.closed = true }

func (s *blocksSource) Block(b int, sc *BlockScratch) (BlockCols, bool, error) {
	s.decoded = append(s.decoded, b)
	lo := 0
	for _, sz := range s.sizes[:b] {
		lo += sz
	}
	n := s.sizes[b]
	cols := BlockCols{Keys: [][]int32{make([]int32, n), nil}, Meas: [][]float64{make([]float64, n)}, Rows: n}
	if s.scratch {
		cols.Keys[0], cols.Meas[0] = sc.KeyBuf(0, 2, n), sc.MeasBuf(0, 1, n)
	}
	for i := range cols.Keys[0] {
		cols.Keys[0][i] = int32((lo + i) % 7)
		cols.Meas[0][i] = float64(lo + i)
	}
	cols.Filtered = s.filtered > 0 && b == s.filtered
	return cols, true, nil
}

// TestRowsFrom cuts a source at every kind of position and checks that the
// rows served are exactly [from, Rows()) in order, that BlockRows agrees
// with what Block serves, and that blocks before the cut are never decoded.
func TestRowsFrom(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sizes   []int
		from    int
		decoded []int // blocks of the underlying source a full read decodes
	}{
		{"at 0", []int{5, 4, 3}, 0, []int{0, 1, 2}},
		{"inside the only block", []int{9}, 4, []int{0}},
		{"on a block boundary", []int{5, 4, 3}, 5, []int{1, 2}},
		{"inside a middle block", []int{5, 4, 3}, 7, []int{1, 2}},
		{"inside the last block", []int{5, 4, 3}, 11, []int{2}},
		{"before an empty tail", []int{5, 4, 0}, 9, nil},
		{"at Rows()", []int{5, 4, 3}, 12, nil},
		{"past Rows()", []int{5, 4, 3}, 40, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			under := &blocksSource{sizes: tc.sizes}
			total := under.Rows()
			src := RowsFrom(under, tc.from)
			want := max(total-tc.from, 0)
			if src.Rows() != want {
				t.Fatalf("Rows() = %d, want %d", src.Rows(), want)
			}
			var meas []float64
			for b := 0; b < src.Blocks(); b++ {
				cols, ok, err := src.Block(b, new(BlockScratch))
				if err != nil || !ok {
					t.Fatalf("block %d: ok=%v err=%v", b, ok, err)
				}
				if cols.Rows != src.BlockRows(b) || len(cols.Meas[0]) != cols.Rows || len(cols.Keys[0]) != cols.Rows {
					t.Fatalf("block %d: Rows %d, BlockRows %d, %d measures, %d keys", b, cols.Rows, src.BlockRows(b), len(cols.Meas[0]), len(cols.Keys[0]))
				}
				if cols.Keys[1] != nil {
					t.Fatalf("block %d: a column the source left nil came back non-nil", b)
				}
				for i, k := range cols.Keys[0] {
					if k != int32(int(cols.Meas[0][i])%7) {
						t.Fatalf("block %d row %d: key %d beside measure %v", b, i, k, cols.Meas[0][i])
					}
				}
				meas = append(meas, cols.Meas[0]...)
			}
			if len(meas) != want {
				t.Fatalf("blocks served %d rows, want %d", len(meas), want)
			}
			for i, v := range meas {
				if v != float64(tc.from+i) {
					t.Fatalf("row %d of the cut is fact row %v, want %d", i, v, tc.from+i)
				}
			}
			if !slices.Equal(under.decoded, tc.decoded) {
				t.Errorf("decoded blocks %v, want %v", under.decoded, tc.decoded)
			}
			src.Close()
			if !under.closed {
				t.Error("Close did not reach the underlying source")
			}
		})
	}
}

// TestRowsFromRejectsSelections: a Filtered block holds only the rows the
// backend selected, and a row range over filtered rows is not a position
// in the table.
func TestRowsFromRejectsSelections(t *testing.T) {
	src := RowsFrom(&blocksSource{sizes: []int{5, 4, 3}, filtered: 2}, 6)
	if _, _, err := src.Block(0, new(BlockScratch)); err != nil {
		t.Fatalf("plain block: %v", err)
	}
	if _, _, err := src.Block(1, new(BlockScratch)); err == nil || !strings.Contains(err.Error(), "predicates") {
		t.Fatalf("Filtered block: err = %v, want an error naming the predicates", err)
	}
}

// TestRowsFromLeavesTheTableAlone: resident blocks alias the table's own
// column headers, which trimming must not touch.
func TestRowsFromLeavesTheTableAlone(t *testing.T) {
	f := NewFactTable(schema(t))
	for r := 0; r < 6; r++ {
		f.MustAppend([]int32{int32(r % 2)}, []float64{float64(r)})
	}
	src := RowsFrom(f.ScanSource(ColSet{}, nil), 4)
	cols, _, err := src.Block(0, new(BlockScratch))
	if err != nil {
		t.Fatal(err)
	}
	if cols.Rows != 2 || cols.Meas[0][0] != 4 || cols.Keys[0][1] != 1 {
		t.Fatalf("trimmed block = %+v", cols)
	}
	if len(f.Keys[0]) != 6 || len(f.Meas[0]) != 6 || f.Meas[0][0] != 0 {
		t.Fatal("trimming the block trimmed the table")
	}
}

// TestRowsAt narrows sources to listed rows and checks that the rows
// served are exactly those, in order, with BlockRows agreeing with Block;
// that blocks holding no listed row are never decoded; that a single
// block is served in parts of at most atBlockRows; and that a source
// decoding into the caller's scratch is gathered in place correctly.
func TestRowsAt(t *testing.T) {
	every := func(n, step int) []int32 {
		var rows []int32
		for r := 0; r < n; r += step {
			rows = append(rows, int32(r))
		}
		return rows
	}
	big := 2*atBlockRows + 7
	for _, tc := range []struct {
		name    string
		sizes   []int
		rows    []int32
		decoded []int // blocks of the underlying source a full read decodes
		parts   int
	}{
		{"none", []int{5, 4, 3}, nil, nil, 0},
		{"every block", []int{5, 4, 3}, []int32{1, 3, 5, 6, 11}, []int{0, 1, 2}, 3},
		{"skips a block", []int{5, 4, 3}, []int32{0, 4, 9, 10}, []int{0, 2}, 2},
		{"all rows", []int{5, 4, 3}, every(12, 1), []int{0, 1, 2}, 3},
		{"past an empty block", []int{5, 0, 3}, []int32{4, 5}, []int{0, 2}, 2},
		{"one block in parts", []int{big}, every(big, 1), []int{0, 0, 0}, 3},
		{"one block, one part", []int{big}, every(big, 3), []int{0}, 1},
	} {
		for _, scratch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/scratch=%v", tc.name, scratch), func(t *testing.T) {
				under := &blocksSource{sizes: tc.sizes, scratch: scratch}
				src := RowsAt(under, tc.rows, ColSet{}, nil)
				if src.Rows() != len(tc.rows) || src.Blocks() != tc.parts {
					t.Fatalf("Rows() = %d in %d blocks, want %d in %d", src.Rows(), src.Blocks(), len(tc.rows), tc.parts)
				}
				var sc BlockScratch
				var meas []float64
				for b := 0; b < src.Blocks(); b++ {
					cols, ok, err := src.Block(b, &sc)
					if err != nil || !ok {
						t.Fatalf("block %d: ok=%v err=%v", b, ok, err)
					}
					if cols.Rows != src.BlockRows(b) || cols.Rows > atBlockRows || len(cols.Meas[0]) != cols.Rows || len(cols.Keys[0]) != cols.Rows {
						t.Fatalf("block %d: Rows %d, BlockRows %d, %d measures, %d keys", b, cols.Rows, src.BlockRows(b), len(cols.Meas[0]), len(cols.Keys[0]))
					}
					if cols.Keys[1] != nil {
						t.Fatalf("block %d: a column the source left nil came back non-nil", b)
					}
					for i, k := range cols.Keys[0] {
						if k != int32(int(cols.Meas[0][i])%7) {
							t.Fatalf("block %d row %d: key %d beside measure %v", b, i, k, cols.Meas[0][i])
						}
					}
					meas = append(meas, cols.Meas[0]...)
				}
				if len(meas) != len(tc.rows) {
					t.Fatalf("blocks served %d rows, want %d", len(meas), len(tc.rows))
				}
				for i, v := range meas {
					if v != float64(tc.rows[i]) {
						t.Fatalf("row %d served fact row %v, want %d", i, v, tc.rows[i])
					}
				}
				if !slices.Equal(under.decoded, tc.decoded) {
					t.Errorf("decoded blocks %v, want %v", under.decoded, tc.decoded)
				}
				src.Close()
				if !under.closed {
					t.Error("Close did not reach the underlying source")
				}
			})
		}
	}
}

// TestRowsAtRejectsSelections: a Filtered block's rows are not positions
// in the table.
func TestRowsAtRejectsSelections(t *testing.T) {
	src := RowsAt(&blocksSource{sizes: []int{5, 4, 3}, filtered: 1}, []int32{1, 6}, ColSet{}, nil)
	if _, _, err := src.Block(0, new(BlockScratch)); err != nil {
		t.Fatalf("plain block: %v", err)
	}
	if _, _, err := src.Block(1, new(BlockScratch)); err == nil || !strings.Contains(err.Error(), "predicates") {
		t.Fatalf("Filtered block: err = %v, want an error naming the predicates", err)
	}
}

// TestRowsAtFilters: with predicates, a block serves only the listed rows
// whose keys every predicate accepts, marked Filtered, without the
// predicate-only columns; a block none of whose rows pass is served as
// pruned; and the predicates of one hierarchy are evaluated once, on
// their shared vector.
func TestRowsAtFilters(t *testing.T) {
	ok := []bool{false, true, false, true, false, false, false} // keys 1 and 3 (rows r%7)
	preds := []LevelPred{{Hier: 0, Accept: ok}, {Hier: 0, Accept: ok}}
	rows := []int32{0, 1, 2, 3, 4, 5, 8, 9, 10, 14, 15, 17, 19, 20}
	for _, predOnly := range []bool{false, true} {
		for _, scratch := range []bool{false, true} {
			t.Run(fmt.Sprintf("predOnly=%v/scratch=%v", predOnly, scratch), func(t *testing.T) {
				under := &blocksSource{sizes: []int{6, 6, 6, 6}, scratch: scratch}
				need := ColSet{PredOnly: []bool{predOnly, false}}
				src := RowsAt(under, rows, need, preds)
				var sc BlockScratch
				var served []float64
				var pruned []int
				for b := 0; b < src.Blocks(); b++ {
					cols, ok, err := src.Block(b, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						pruned = append(pruned, b)
						continue
					}
					if !cols.Filtered || len(cols.Meas[0]) != cols.Rows || (cols.Keys[0] == nil) != predOnly {
						t.Fatalf("block %d: Filtered %v, %d rows, %d measures, key column %v with predOnly %v", b, cols.Filtered, cols.Rows, len(cols.Meas[0]), cols.Keys[0] != nil, predOnly)
					}
					for i, v := range cols.Meas[0] {
						if cols.Keys[0] != nil && cols.Keys[0][i] != int32(int(v)%7) {
							t.Fatalf("block %d row %d: key %d beside measure %v", b, i, cols.Keys[0][i], v)
						}
					}
					served = append(served, cols.Meas[0]...)
				}
				if want := []float64{1, 3, 8, 10, 15, 17}; !slices.Equal(served, want) {
					t.Errorf("served rows %v, want %v", served, want)
				}
				if !slices.Equal(pruned, []int{3}) {
					t.Errorf("pruned blocks %v, want [3]: rows 19 and 20 hold keys 5 and 6", pruned)
				}
			})
		}
	}
}
