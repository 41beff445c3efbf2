package storage

import (
	"slices"
	"strings"
	"testing"
)

// blocksSource serves rows 0..n-1 of a one-key, one-measure table (key r%7,
// measure r) cut into blocks of the given sizes, and records which blocks
// were decoded. A positive filtered marks that block as filtered by the
// backend.
type blocksSource struct {
	sizes    []int
	filtered int
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

func (s *blocksSource) Block(b int, _ *BlockScratch) (BlockCols, bool, error) {
	s.decoded = append(s.decoded, b)
	lo := 0
	for _, sz := range s.sizes[:b] {
		lo += sz
	}
	cols := BlockCols{Keys: [][]int32{make([]int32, s.sizes[b]), nil}, Meas: [][]float64{make([]float64, s.sizes[b])}, Rows: s.sizes[b]}
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
