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

// TestRowsFromCutsListedRows: the block a cut falls inside of a listed
// source loses the first entries of its Listed rows, not the first rows
// of its columns; over a single-block source the rows left are still the
// caller's own list.
func TestRowsFromCutsListedRows(t *testing.T) {
	rows := []int32{1, 3, 5, 6, 11}
	src := RowsFrom(RowsAt(&blocksSource{sizes: []int{5, 4, 3}}, rows), 3)
	var sc BlockScratch
	var served []float64
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil || !ok {
			t.Fatalf("block %d: ok=%v err=%v", b, ok, err)
		}
		if len(cols.Listed) != src.BlockRows(b) || len(cols.Meas[0]) != cols.Rows {
			t.Fatalf("block %d: %d listed rows, BlockRows %d, %d measures in %d rows", b, len(cols.Listed), src.BlockRows(b), len(cols.Meas[0]), cols.Rows)
		}
		for _, r := range cols.Listed {
			served = append(served, cols.Meas[0][r])
		}
	}
	if want := []float64{6, 11}; !slices.Equal(served, want) {
		t.Errorf("served rows %v, want %v", served, want)
	}
	if cols, _, _ := src.Block(0, &sc); cols.Rows != 4 {
		t.Errorf("the cut block holds %d rows, want its 4: columns are not trimmed", cols.Rows)
	}

	one := []int32{2, 4, 7, 9}
	cols, _, err := RowsFrom(RowsAt(&blocksSource{sizes: []int{10}}, one), 1).Block(0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols.Listed) != 3 || &cols.Listed[0] != &one[1] || cols.Rows != 10 {
		t.Errorf("cut single block: listed %v of %d rows, want the caller's %v of 10", cols.Listed, cols.Rows, one[1:])
	}
}

// TestForBlocksRefusesListedRows: ForBlocks hands whole blocks to callers
// that read every row, so a block that lists its rows is an error, not a
// block read whole.
func TestForBlocksRefusesListedRows(t *testing.T) {
	calls := 0
	err := ForBlocks(RowsAt(&blocksSource{sizes: []int{5}}, []int32{1, 2}), func(BlockCols) error {
		calls++
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "lists its rows") || calls != 0 {
		t.Fatalf("ForBlocks over listed rows: err = %v after %d blocks, want an error before any", err, calls)
	}
}

// TestRowsAt narrows sources to listed rows and checks that every block
// is its underlying block whole, unread blocks never decoded, with the
// listed rows that fall in it as Listed: ascending, block-relative, as
// many as BlockRows says, and in all exactly the listed rows in order.
// Over a single-block source Listed is the caller's list itself, cut in
// parts of at most atBlockRows; over a multi-block source the first
// block's is too, and a later block's is rebased into the caller's
// scratch (Idx), beside a source that decodes into that scratch as well.
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
				src := RowsAt(under, tc.rows)
				if src.Rows() != len(tc.rows) || src.Blocks() != tc.parts {
					t.Fatalf("Rows() = %d in %d blocks, want %d in %d", src.Rows(), src.Blocks(), len(tc.rows), tc.parts)
				}
				var sc BlockScratch
				var served []float64
				for b := 0; b < src.Blocks(); b++ {
					cols, ok, err := src.Block(b, &sc)
					if err != nil || !ok {
						t.Fatalf("block %d: ok=%v err=%v", b, ok, err)
					}
					at := under.decoded[len(under.decoded)-1]
					start := 0
					for _, sz := range tc.sizes[:at] {
						start += sz
					}
					n := len(cols.Listed)
					if n == 0 || n != src.BlockRows(b) || n > atBlockRows {
						t.Fatalf("block %d: %d listed rows, BlockRows %d", b, n, src.BlockRows(b))
					}
					if cols.Rows != tc.sizes[at] || len(cols.Meas[0]) != cols.Rows || len(cols.Keys[0]) != cols.Rows || cols.Keys[1] != nil {
						t.Fatalf("block %d: %d rows, %d measures, %d keys: not block %d of %d rows whole", b, cols.Rows, len(cols.Meas[0]), len(cols.Keys[0]), at, tc.sizes[at])
					}
					switch own := &tc.rows[len(served)]; {
					case start == 0 && &cols.Listed[0] != own:
						t.Fatalf("block %d: the listed rows of a block at row 0 were copied", b)
					case start > 0 && &cols.Listed[0] != &sc.Idx[0]:
						t.Fatalf("block %d: the listed rows of a block at row %d are not rebased in the scratch", b, start)
					}
					for i, r := range cols.Listed {
						if i > 0 && r <= cols.Listed[i-1] || int(r) >= cols.Rows {
							t.Fatalf("block %d: listed rows %v not ascending within %d rows", b, cols.Listed, cols.Rows)
						}
						if cols.Keys[0][r] != int32(int(cols.Meas[0][r])%7) {
							t.Fatalf("block %d row %d: key %d beside measure %v", b, r, cols.Keys[0][r], cols.Meas[0][r])
						}
						served = append(served, cols.Meas[0][r])
					}
				}
				if len(served) != len(tc.rows) {
					t.Fatalf("blocks served %d rows, want %d", len(served), len(tc.rows))
				}
				for i, v := range served {
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
	src := RowsAt(&blocksSource{sizes: []int{5, 4, 3}, filtered: 1}, []int32{1, 6})
	if _, _, err := src.Block(0, new(BlockScratch)); err != nil {
		t.Fatalf("plain block: %v", err)
	}
	if _, _, err := src.Block(1, new(BlockScratch)); err == nil || !strings.Contains(err.Error(), "predicates") {
		t.Fatalf("Filtered block: err = %v, want an error naming the predicates", err)
	}
}
