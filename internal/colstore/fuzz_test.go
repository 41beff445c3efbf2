package colstore

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/assess-olap/assess/internal/storage"
)

// FuzzOpenSegment feeds arbitrary bytes to the segment reader. The
// property: opening and decoding either fail with an error or yield a
// Filtered block that holds, row for row, every key and measure value of
// exactly the rows the linear reference — the acceptance vector applied
// to the fully decoded columns — accepts, whether the columns were
// gathered or decoded whole and compacted; never a panic. Seeded from a
// version 1 file (the checked-in fixture), two version 2 files of the
// same schema, one of them with a delta-encoded measure, and a copy of
// the first whose key column 1 claims the raw encoding the reader
// refuses.
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
	ramp := make([]float64, 300)
	for r := range ramp {
		ramp[r] = float64(3*r + r%2)
	}
	if enc, _, _, _ := encodeMeas(ramp); enc != mencDelta {
		f.Fatalf("the ramp encodes as %d, not delta", enc)
	}
	var seeds []string
	for i, m := range [][]float64{meas[0], ramp} {
		v2 := filepath.Join(f.TempDir(), fmt.Sprintf("seed%d.seg", i))
		if _, err := writeSegment(v2, keys, [][]float64{m, meas[1]}, 300, st.ruMaps); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, v2)
	}
	seeds = append(seeds, withRawKey(f, seeds[0], 1, keys[1]))
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

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
	// Cutoff 1 gathers every column that can be gathered; cutoff 0
	// decodes every column whole and compacts it.
	for _, cutoff := range []float64{0, 1} {
		for _, plan := range plans {
			got, ok, err := seg.decodeInto(storage.ColSet{}, plan, cutoff, &sc)
			if err != nil {
				continue
			}
			checkFuzzedBlock(t, all, got, ok, plan)
		}
	}
}

// checkFuzzedBlock compares a predicated decode with the linear reference
// over the segment's full decode: row k of the block must be the k-th
// accepted row, key for key and measure bit for measure bit.
func checkFuzzedBlock(t *testing.T, all, got storage.BlockCols, ok bool, plan *scanPlan) {
	if ok && (!got.Filtered || len(got.Keys) != len(all.Keys) || len(got.Meas) != len(all.Meas)) {
		t.Fatalf("predicated block: Filtered=%v, %d keys, %d measures", got.Filtered, len(got.Keys), len(got.Meas))
	}
	for h := range got.Keys {
		if ok && len(got.Keys[h]) != got.Rows {
			t.Fatalf("key column %d holds %d rows of %d", h, len(got.Keys[h]), got.Rows)
		}
	}
	for m := range got.Meas {
		if ok && len(got.Meas[m]) != got.Rows {
			t.Fatalf("measure column %d holds %d rows of %d", m, len(got.Meas[m]), got.Rows)
		}
	}
	k := 0
	for r := 0; r < all.Rows; r++ {
		sel := true
		for _, h := range plan.filtered {
			sel = sel && accepted(plan.accepts[h], all.Keys[h][r])
		}
		if !sel {
			continue
		}
		if ok && k < got.Rows {
			for h := range all.Keys {
				if got.Keys[h][k] != all.Keys[h][r] {
					t.Fatalf("block row %d (segment row %d): key %d = %d, full decode says %d", k, r, h, got.Keys[h][k], all.Keys[h][r])
				}
			}
			for m := range all.Meas {
				if math.Float64bits(got.Meas[m][k]) != math.Float64bits(all.Meas[m][r]) {
					t.Fatalf("block row %d (segment row %d): measure %d = %v, full decode says %v", k, r, m, got.Meas[m][k], all.Meas[m][r])
				}
			}
		}
		k++
	}
	if !ok && k != 0 {
		t.Fatalf("segment skipped although %d rows match", k)
	}
	if ok && got.Rows != k {
		t.Fatalf("block holds %d rows, reference accepts %d", got.Rows, k)
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
	f.Add(appendRecord(wal[:len(wal):len(wal)], []int32{1 << 20, 0}, []float64{1, 1}))
	f.Add(appendRecord(wal[:len(wal):len(wal)], []int32{0, -1}, []float64{1, 1}))
	// What a killed mapped log leaves: zeros up to a window's end past
	// the intact records, or past a torn one.
	f.Add(append(wal[:len(wal):len(wal)], make([]byte, walWindow-len(wal))...))
	f.Add(append(wal[:len(wal)-5:len(wal)-5], make([]byte, walWindow-len(wal)+5)...))
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
	st.wal.close(false)
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
