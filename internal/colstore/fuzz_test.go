package colstore

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
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

// FuzzReplayWAL feeds arbitrary bytes as the wal.log of the checked-in
// version 1 store. The property: Open fails with an error, or every row
// of the store it opens scans and rolls up to every level of its
// hierarchy; never a panic, and Open allocates no more than a constant
// plus a multiple of the log's length.
func FuzzReplayWAL(f *testing.F) {
	src := filepath.Join("testdata", "v1store")
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-5])
	f.Add(wal[:walHeaderLen])
	f.Add(append(wal[:len(wal):len(wal)], walRecord([]int32{1 << 20, 0}, []float64{1, 1})...))
	f.Add(append(wal[:len(wal):len(wal)], walRecord([]int32{0, -1}, []float64{1, 1})...))
	dir := copyDir(f, src)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Open(dir, Options{AutoCompactRows: -1})
		runtime.ReadMemStats(&after)
		// The log is read whole, and a replayed row's 24 bytes of keys
		// and measures come from a 32-byte record, in tail columns that
		// grow by append (≈ 4.8 bytes per log byte at 10⁵ rows); the
		// schema, the manifest and the segment footers are the constant
		// (≈ 50 KiB).
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+128<<10); grew > most {
			t.Fatalf("opening a %d-byte WAL allocated %d, want ≤ %d", len(data), grew, most)
		}
		if err != nil {
			return
		}
		defer closeNoSync(st)
		checkRollUp(t, st)
	})
}

// closeNoSync releases what Open took without Close's fsync of the
// log, which would bound a fuzzer by the disk.
func closeNoSync(st *Store) {
	st.walF.Close()
	st.closeSegs()
}

// FuzzOpenManifest feeds arbitrary bytes as the MANIFEST of the
// checked-in version 1 store. The property: Open fails with an error
// or opens a store whose every row scans and rolls up; never a panic.
func FuzzOpenManifest(f *testing.F) {
	src := filepath.Join("testdata", "v1store")
	man, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(man)
	f.Add([]byte(`{"formatVersion": 1, "seq": 4, "segments": [{"file": "../x.seg", "rows": 88}], "walEpoch": 2}`))
	f.Add([]byte(`{"formatVersion": 1, "seq": 4, "segments": [{"file": "seg-000003.seg", "rows": 88}, {"file": "seg-000003.seg", "rows": 88}], "walEpoch": 2, "walSkip": -3}`))
	f.Add([]byte(`{"formatVersion": 1, "segments": [{"file": "wal.log", "rows": 0}], "walEpoch": 7, "walSkip": 1000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := copyDir(t, src)
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{AutoCompactRows: -1})
		if err != nil {
			return
		}
		defer closeNoSync(st)
		checkRollUp(t, st)
	})
}

// checkRollUp scans every row of an opened store and rolls each key up
// through its hierarchy's level maps, as a scan grouped at any level
// does.
func checkRollUp(t *testing.T, st *Store) {
	t.Helper()
	keys, _ := readAll(t, st.Snapshot(storage.ColSet{}, nil), len(st.schema.Hiers), len(st.schema.Measures))
	for h, col := range keys {
		if len(col) != st.Rows() {
			t.Fatalf("hierarchy %d scanned %d rows of %d", h, len(col), st.Rows())
		}
		for _, k := range col {
			for d, m := range st.ruMaps[h] {
				if k < 0 || int(k) >= len(m) {
					t.Fatalf("key %d of hierarchy %d has no level %d member (%d base members)", k, h, d, len(m))
				}
			}
		}
	}
}
