package colstore

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/assess-olap/assess/internal/storage"
)

// FuzzOpenSegment feeds arbitrary bytes to the segment reader. The
// property: opening and decoding either fail with an error or yield a
// block whose selection bitmap is exactly what the linear reference —
// the acceptance vector applied to the fully decoded columns — says;
// never a panic, never a bit set past the last row. Seeded from a
// version 1 file (the checked-in fixture) and a version 2 file of the
// same schema.
func FuzzOpenSegment(f *testing.F) {
	s := testSchema(f, 120)
	st := newStore(f.TempDir(), s, Options{})
	for _, name := range []string{"seg-000001.seg", "seg-000003.seg"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1store", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	keys, meas := genRows(s, 300, 23)
	v2 := filepath.Join(f.TempDir(), "seed.seg")
	if _, err := writeSegment(v2, keys, meas, 300, st.ruMaps); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(v2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	plans := []*scanPlan{
		st.plan([]storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{3, 7, 31}}}),
		st.plan([]storage.LevelPred{
			{Hier: 0, Level: 1, Members: []int32{0, 2, 5, 9}},
			{Hier: 1, Level: 0, Members: rangeMembers(5, 40)},
		}),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, stable := range []bool{true, false} {
			seg, err := newSegment("fuzz.seg", memBlob{data: data, isStable: stable}, int64(len(data)))
			if err != nil {
				continue
			}
			checkFuzzedSegment(t, seg, plans)
			seg.release()
		}
	})
}

// memBlob serves a segment from memory the way the file readers do:
// like mmap when stable (views of the data, out-of-range slicing
// panics), like pread otherwise (copies into scratch sized by the
// request, short reads fail).
type memBlob struct {
	data     []byte
	isStable bool
}

func (b memBlob) bytes(off int64, n int, scratch *[]byte) ([]byte, error) {
	if b.isStable {
		return b.data[off : off+int64(n)], nil
	}
	if off < 0 || off+int64(n) > int64(len(b.data)) {
		return nil, io.ErrUnexpectedEOF
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	copy(buf, b.data[off:])
	return buf, nil
}

func (b memBlob) stable() bool { return b.isStable }
func (b memBlob) close() error { return nil }

func checkFuzzedSegment(t *testing.T, seg *segment, plans []*scanPlan) {
	foot := seg.foot
	// Store.Open refuses a column count that differs from the schema's,
	// and const columns let a footer claim rows no payload backs: bound
	// what the harness is willing to materialize.
	if len(foot.keys) != 2 || len(foot.meas) != 2 || foot.rows > 1<<16 {
		return
	}
	var full, sc storage.BlockScratch
	all, ok, err := seg.decodeInto(storage.ColSet{}, nil, 0, &full)
	if err != nil || !ok {
		return
	}
	for _, plan := range plans {
		got, ok, err := seg.decodeInto(storage.ColSet{}, plan, gatherCutoff, &sc)
		if err != nil {
			continue
		}
		want := 0
		for r := 0; r < foot.rows; r++ {
			sel := true
			for _, h := range plan.filtered {
				sel = sel && accepted(plan.accepts[h], all.Keys[h][r])
			}
			if sel {
				want++
			}
			if ok && got.Selected(r) != sel {
				t.Fatalf("row %d selected=%v, linear reference says %v", r, got.Selected(r), sel)
			}
		}
		if !ok && want != 0 {
			t.Fatalf("segment skipped although %d rows match", want)
		}
		if ok && (got.SelCount != want || popcount(got.Sel) != want) {
			t.Fatalf("SelCount %d, popcount %d, reference %d", got.SelCount, popcount(got.Sel), want)
		}
	}
}
