package colstore

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// testSchema builds a two-hierarchy schema with nBase base members on
// the first hierarchy (rolled up 10:1) and 50 on the second.
func testSchema(t testing.TB, nBase int) *mdm.Schema {
	t.Helper()
	h1 := mdm.NewHierarchy("H", "base", "mid")
	for i := 0; i < nBase; i++ {
		h1.MustAddMember(itoa("b", i), itoa("m", i/10))
	}
	h2 := mdm.NewHierarchy("G", "g")
	for i := 0; i < 50; i++ {
		h2.MustAddMember(itoa("g", i))
	}
	return mdm.NewSchema("T", []*mdm.Hierarchy{h1, h2}, []mdm.Measure{
		{Name: "qty", Op: mdm.AggSum},
		{Name: "amt", Op: mdm.AggSum},
	})
}

func itoa(p string, i int) string { return fmt.Sprintf("%s-%04d", p, i) }

// genRows builds deterministic row data: ordered keys on hierarchy 0
// (so segments get disjoint zone maps), random on hierarchy 1.
func genRows(s *mdm.Schema, n int, seed int64) (keys [][]int32, meas [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	nb := s.Hiers[0].Dict(0).Len()
	ng := s.Hiers[1].Dict(0).Len()
	keys = [][]int32{make([]int32, n), make([]int32, n)}
	meas = [][]float64{make([]float64, n), make([]float64, n)}
	for r := 0; r < n; r++ {
		keys[0][r] = int32(r * nb / n)
		keys[1][r] = int32(rng.Intn(ng))
		meas[0][r] = float64(1 + rng.Intn(50))
		meas[1][r] = math.Round(rng.Float64()*1e4) / 100
	}
	return keys, meas
}

// appendRows pushes the generated rows through the backend.
func appendRows(t testing.TB, b storage.SegmentBackend, keys [][]int32, meas [][]float64) {
	t.Helper()
	row := make([]int32, len(keys))
	vals := make([]float64, len(meas))
	for r := 0; r < len(keys[0]); r++ {
		for h := range keys {
			row[h] = keys[h][r]
		}
		for m := range meas {
			vals[m] = meas[m][r]
		}
		if err := b.Append(row, vals); err != nil {
			t.Fatalf("append row %d: %v", r, err)
		}
	}
}

// readAll materializes every row of a source in block order.
func readAll(t *testing.T, src storage.ScanSource, nk, nm int) ([][]int32, [][]float64) {
	t.Helper()
	defer src.Close()
	keys := make([][]int32, nk)
	meas := make([][]float64, nm)
	var sc storage.BlockScratch
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !ok {
			t.Fatalf("block %d pruned on an unpredicated scan", b)
		}
		for h := 0; h < nk; h++ {
			keys[h] = append(keys[h], cols.Keys[h][:cols.Rows]...)
		}
		for m := 0; m < nm; m++ {
			meas[m] = append(meas[m], cols.Meas[m][:cols.Rows]...)
		}
	}
	return keys, meas
}

func checkEqual(t *testing.T, wantK [][]int32, wantM [][]float64, gotK [][]int32, gotM [][]float64) {
	t.Helper()
	for h := range wantK {
		if len(gotK[h]) != len(wantK[h]) {
			t.Fatalf("key col %d: got %d rows, want %d", h, len(gotK[h]), len(wantK[h]))
		}
		for r := range wantK[h] {
			if gotK[h][r] != wantK[h][r] {
				t.Fatalf("key col %d row %d: got %d, want %d", h, r, gotK[h][r], wantK[h][r])
			}
		}
	}
	for m := range wantM {
		for r := range wantM[m] {
			if gotM[m][r] != wantM[m][r] {
				t.Fatalf("meas col %d row %d: got %v, want %v", m, r, gotM[m][r], wantM[m][r])
			}
		}
	}
}

func TestStoreAppendSnapshotReopen(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		name := "mmap"
		if noMmap {
			name = "pread"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := testSchema(t, 500)
			st, err := Create(dir, s, Options{SegmentRows: 128, AutoCompactRows: -1, NoMmap: noMmap})
			if err != nil {
				t.Fatal(err)
			}
			wantK, wantM := genRows(s, 1000, 1)
			appendRows(t, st, wantK, wantM)
			if st.Rows() != 1000 {
				t.Fatalf("rows = %d, want 1000", st.Rows())
			}
			gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
			checkEqual(t, wantK, wantM, gotK, gotM)

			// Fold the WAL into segments; the logical rows must not move.
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			info := st.Info()
			if info.Segments == 0 || info.TailRows != 0 || info.SegmentRows != 1000 {
				t.Fatalf("after compact: %+v", info)
			}
			gotK, gotM = readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
			checkEqual(t, wantK, wantM, gotK, gotM)

			// Append more (WAL tail on top of segments), reopen, compare.
			moreK, moreM := genRows(s, 300, 2)
			appendRows(t, st, moreK, moreM)
			for h := range wantK {
				wantK[h] = append(wantK[h], moreK[h]...)
			}
			for m := range wantM {
				wantM[m] = append(wantM[m], moreM[m]...)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{SegmentRows: 128, AutoCompactRows: -1, NoMmap: noMmap})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if st2.Rows() != 1300 {
				t.Fatalf("reopened rows = %d, want 1300", st2.Rows())
			}
			gotK, gotM = readAll(t, st2.Snapshot(storage.ColSet{}, nil), 2, 2)
			checkEqual(t, wantK, wantM, gotK, gotM)
		})
	}
}

func TestSegmentTableMatchesResident(t *testing.T) {
	s := testSchema(t, 200)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 64, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segTab := storage.NewSegmentTable(s, st)
	resTab := storage.NewFactTable(s)
	wantK, wantM := genRows(s, 500, 3)
	appendRows(t, st, wantK, wantM)
	row := make([]int32, 2)
	for r := 0; r < 500; r++ {
		row[0], row[1] = wantK[0][r], wantK[1][r]
		resTab.MustAppend(row, []float64{wantM[0][r], wantM[1][r]})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if segTab.Rows() != resTab.Rows() {
		t.Fatalf("rows: segment %d, resident %d", segTab.Rows(), resTab.Rows())
	}
	if segTab.Resident() {
		t.Fatal("segment table claims to be resident")
	}
	gotK, gotM := readAll(t, segTab.ScanSource(storage.ColSet{}, nil), 2, 2)
	resK, resM := readAll(t, resTab.ScanSource(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, resK, resM, gotK, gotM)
	// Version advances with appends like the resident backend.
	v := segTab.Version()
	segTab.MustAppend([]int32{0, 0}, []float64{1, 2})
	if segTab.Version() != v+1 {
		t.Fatalf("version did not advance on segment append")
	}
}

// onWALPaths runs f once on each WAL write path: the mapped window, and
// the positional write that stands in for it where mapping is
// unavailable. f passes every store it creates or opens through use
// before the first append.
func onWALPaths(t *testing.T, f func(t *testing.T, use func(*Store) *Store)) {
	for _, mapped := range []bool{true, false} {
		name := "mapped"
		if !mapped {
			name = "positional"
		}
		t.Run(name, func(t *testing.T) {
			f(t, func(st *Store) *Store {
				if !mapped {
					st.positionalWAL()
				}
				return st
			})
		})
	}
}

// TestWALTornTailRecovery: a torn final record, the zeros a killed
// mapped log leaves past its last record, and both together reopen to
// the intact prefix, cut to exactly its length, and the store takes
// appends after it.
func TestWALTornTailRecovery(t *testing.T) {
	zeroTail := func(b []byte) []byte { return append(b, make([]byte, walWindow-len(b))...) }
	cases := []struct {
		name  string
		crash func(raw []byte) []byte
		rows  int
	}{
		{"torn", func(raw []byte) []byte { return raw[:len(raw)-5] }, 49},
		{"zeros", func(raw []byte) []byte { return zeroTail(raw) }, 50},
		{"torn+zeros", func(raw []byte) []byte { return zeroTail(raw[:len(raw)-5]) }, 49},
	}
	onWALPaths(t, func(t *testing.T, use func(*Store) *Store) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				dir := t.TempDir()
				s := testSchema(t, 100)
				st, err := Create(dir, s, Options{SegmentRows: 1 << 18, AutoCompactRows: -1})
				if err != nil {
					t.Fatal(err)
				}
				wantK, wantM := genRows(s, 50, 4)
				appendRows(t, use(st), wantK, wantM)
				st.Close()
				walPath := filepath.Join(dir, walName)
				raw, err := os.ReadFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				recLen := int64(len(raw)-walHeaderLen) / 50
				if err := os.WriteFile(walPath, c.crash(raw[:len(raw):len(raw)]), 0o644); err != nil {
					t.Fatal(err)
				}
				st2, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				use(st2)
				defer st2.Close()
				if st2.Rows() != c.rows {
					t.Fatalf("rows after crash = %d, want %d", st2.Rows(), c.rows)
				}
				checkWALLen(t, walPath, walHeaderLen+int64(c.rows)*recLen)
				gotK, gotM := readAll(t, st2.Snapshot(storage.ColSet{}, nil), 2, 2)
				for h := range wantK {
					wantK[h] = wantK[h][:c.rows]
				}
				for m := range wantM {
					wantM[m] = wantM[m][:c.rows]
				}
				checkEqual(t, wantK, wantM, gotK, gotM)
				// The store still accepts appends after recovery, and
				// Close leaves no zero tail behind them.
				if err := st2.Append([]int32{1, 1}, []float64{1, 1}); err != nil {
					t.Fatal(err)
				}
				if st2.Rows() != c.rows+1 {
					t.Fatalf("rows after post-recovery append = %d", st2.Rows())
				}
				if err := st2.Close(); err != nil {
					t.Fatal(err)
				}
				checkWALLen(t, walPath, walHeaderLen+int64(c.rows+1)*recLen)
			})
		}
	})
}

func checkWALLen(t *testing.T, walPath string, want int64) {
	t.Helper()
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Fatalf("%s holds %d bytes, want %d", walPath, fi.Size(), want)
	}
}

// TestAppendAllocFree: an append encodes its record straight into the
// log, mapped or positional, so a row costs no allocation beyond the
// tail columns' amortized growth.
func TestAppendAllocFree(t *testing.T) {
	onWALPaths(t, func(t *testing.T, use func(*Store) *Store) {
		s := testSchema(t, 100)
		st, err := Create(t.TempDir(), s, Options{AutoCompactRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer use(st).Close()
		keys, vals := []int32{3, 7}, []float64{1, 2.5}
		if n := testing.AllocsPerRun(10000, func() {
			if err := st.Append(keys, vals); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Append allocates %v times per row", n)
		}
	})
}

// TestWALRecordKeyOutOfRange: a record that passes the length and CRC
// checks is not a torn tail, so a key the dictionaries do not hold fails
// the open instead of reaching a scan that indexes a level map with it.
func TestWALRecordKeyOutOfRange(t *testing.T) {
	onWALPaths(t, testWALRecordKeyOutOfRange)
}

func testWALRecordKeyOutOfRange(t *testing.T, use func(*Store) *Store) {
	dir := t.TempDir()
	s := testSchema(t, 100)
	st, err := Create(dir, s, Options{SegmentRows: 1 << 18, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	keys, meas := genRows(s, 50, 4)
	appendRows(t, use(st), keys, meas)
	st.Close()
	walPath := filepath.Join(dir, walName)
	for _, bad := range [][]int32{{1 << 20, 0}, {0, -1}} {
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := append(raw, appendRecord(nil, bad, []float64{1, 1})...)
		if err := os.WriteFile(walPath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err == nil {
			n := st.Rows()
			st.Close()
			t.Fatalf("a WAL record with keys %v opened a store of %d rows", bad, n)
		}
		h := 0
		if bad[0] == 0 {
			h = 1
		}
		want := fmt.Sprintf("key %d out of range for hierarchy %s", bad[h], s.Hiers[h].Name())
		if !strings.Contains(err.Error(), want) {
			t.Errorf("open error %q does not say %q", err, want)
		}
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 50 {
		t.Fatalf("rows after restoring the WAL = %d, want 50", st.Rows())
	}
}

// TestManifestSegmentOutsideStore: a manifest names segments by plain
// file names inside the store's directory; a path that leaves it is
// refused before anything is opened.
func TestManifestSegmentOutsideStore(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "v1store"))
	outside := filepath.Join(filepath.Dir(dir), "x.seg")
	raw, err := os.ReadFile(filepath.Join(dir, "seg-000003.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outside, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	for _, name := range []string{"../x.seg", "sub/seg-000003.seg", outside, "", ".", ".."} {
		man := fmt.Sprintf(`{"formatVersion": 1, "seq": 4, "segments": [{"file": %q, "rows": 88}], "walEpoch": 2}`, name)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err == nil {
			st.Close()
			t.Fatalf("segment %q opened", name)
		}
		if !strings.Contains(err.Error(), "not a segment file name") {
			t.Errorf("segment %q: %v", name, err)
		}
	}
	// Nothing was cleaned up on the way to the refusal.
	for _, name := range []string{"seg-000001.seg", "seg-000002.seg", "seg-000003.seg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCrashBetweenWALRotationAndManifest(t *testing.T) {
	onWALPaths(t, testCrashBetweenWALRotationAndManifest)
}

func testCrashBetweenWALRotationAndManifest(t *testing.T, use func(*Store) *Store) {
	dir := t.TempDir()
	s := testSchema(t, 100)
	st, err := Create(dir, s, Options{SegmentRows: 64, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	wantK, wantM := genRows(s, 200, 5)
	appendRows(t, use(st), wantK, wantM)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	moreK, moreM := genRows(s, 30, 6)
	appendRows(t, st, moreK, moreM)
	st.Close()
	for h := range wantK {
		wantK[h] = append(wantK[h], moreK[h]...)
	}
	for m := range wantM {
		wantM[m] = append(wantM[m], moreM[m]...)
	}
	// Rewind the manifest to the state before step 4 of the fold: it
	// still names the previous WAL epoch with a nonzero skip. Open must
	// notice the epoch mismatch and skip nothing.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.WALEpoch--
	man.WALSkip = 17
	if err := writeManifestFile(dir, man); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Rows() != 230 {
		t.Fatalf("rows after simulated crash = %d, want 230", st2.Rows())
	}
	gotK, gotM := readAll(t, st2.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, wantK, wantM, gotK, gotM)
}

func TestCompactionMergesSmallSegments(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t, 300)
	st, err := Create(dir, s, Options{SegmentRows: 1000, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantK, wantM := genRows(s, 900, 7)
	// Build many runt segments by folding after small batches.
	for lo := 0; lo < 900; lo += 100 {
		k := [][]int32{wantK[0][lo : lo+100], wantK[1][lo : lo+100]}
		m := [][]float64{wantM[0][lo : lo+100], wantM[1][lo : lo+100]}
		appendRows(t, st, k, m)
		if ok, err := st.foldWAL(); err != nil || !ok {
			t.Fatalf("fold: ok=%v err=%v", ok, err)
		}
	}
	if got := st.Info().Segments; got != 9 {
		t.Fatalf("pre-merge segments = %d, want 9", got)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Info().Segments; got != 1 {
		t.Fatalf("post-merge segments = %d, want 1", got)
	}
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, wantK, wantM, gotK, gotM)
	// Replaced segment files are gone once no snapshot pins them.
	entries, _ := os.ReadDir(dir)
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("segment files on disk = %d, want 1", segFiles)
	}
}

func TestSnapshotSurvivesCompaction(t *testing.T) {
	s := testSchema(t, 200)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 64, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantK, wantM := genRows(s, 400, 8)
	appendRows(t, st, wantK, wantM)
	snap := st.Snapshot(storage.ColSet{}, nil) // pins the pre-compaction tail
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	appendRows(t, st, wantK, wantM) // concurrent-ish growth
	gotK, gotM := readAll(t, snap, 2, 2)
	checkEqual(t, wantK, wantM, gotK, gotM)
}

func TestBulkWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t, 400)
	w, err := CreateBulk(dir, s, Options{SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	wantK, wantM := genRows(s, 1000, 9)
	row := make([]int32, 2)
	for r := 0; r < 1000; r++ {
		row[0], row[1] = wantK[0][r], wantK[1][r]
		if err := w.Append(row, []float64{wantM[0][r], wantM[1][r]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !IsStoreDir(dir) {
		t.Fatal("bulk close did not produce a store dir")
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", st.Rows())
	}
	if got := st.Info().Segments; got != 8 {
		t.Fatalf("segments = %d, want 8", got)
	}
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, wantK, wantM, gotK, gotM)
	// Reloaded schema matches the original.
	if st.Schema().Name != "T" || len(st.Schema().Hiers) != 2 {
		t.Fatalf("schema mismatch after bulk load")
	}
}

func TestColumnProjection(t *testing.T) {
	s := testSchema(t, 100)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 64, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantK, wantM := genRows(s, 200, 10)
	appendRows(t, st, wantK, wantM)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	need := storage.ColSet{Keys: []bool{true, false}, Meas: []bool{false, true}}
	src := st.Snapshot(need, nil)
	defer src.Close()
	var sc storage.BlockScratch
	cols, ok, err := src.Block(0, &sc)
	if err != nil || !ok {
		t.Fatalf("block 0: ok=%v err=%v", ok, err)
	}
	if cols.Keys[0] == nil || cols.Meas[1] == nil {
		t.Fatal("requested columns missing")
	}
	if cols.Keys[1] != nil || cols.Meas[0] != nil {
		t.Fatal("unrequested columns decoded")
	}
	for r := 0; r < cols.Rows; r++ {
		if cols.Keys[0][r] != wantK[0][r] || cols.Meas[1][r] != wantM[1][r] {
			t.Fatalf("projected row %d mismatch", r)
		}
	}
}

// TestAppendAfterDictionaryGrowth registers members after the store is
// open — a base member under an existing parent, and one under a new
// parent — and appends rows that carry them. The store keeps no roll-up
// tables of its own to fall behind: the rows fold into segments (zone maps
// included), predicated scans select exactly the rows a resident table
// over the same schema holds, before and after compaction, and the grown
// dictionary is on disk when the store is reopened. A key past the live
// dictionary is an error that names the hierarchy.
func TestAppendAfterDictionaryGrowth(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t, 100)
	opts := Options{SegmentRows: 64, AutoCompactRows: -1}
	st, err := Create(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	seg, res := storage.NewSegmentTable(s, st), storage.NewFactTable(s)
	both := func(keys []int32, vals []float64) {
		t.Helper()
		for _, f := range []*storage.FactTable{seg, res} {
			if err := f.Append(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys, meas := genRows(s, 200, 5)
	for r := range keys[0] {
		both([]int32{keys[0][r], keys[1][r]}, []float64{meas[0][r], meas[1][r]})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	h := s.Hiers[0]
	late := h.MustAddMember("b-late", itoa("m", 3))
	later := h.MustAddMember("b-later", "m-new")
	newMid, _ := h.Dict(1).Lookup("m-new")
	for i := 0; i < 70; i++ {
		both([]int32{[]int32{late, later, 31}[i%3], int32(i % 50)}, []float64{float64(i), 1})
	}
	if err := st.Append([]int32{later + 1, 0}, []float64{1, 1}); err == nil || !strings.Contains(err.Error(), "hierarchy H") {
		t.Fatalf("a key past the dictionary: err %v, want one naming hierarchy H", err)
	}

	preds := [][]storage.LevelPred{
		{{Hier: 0, Level: 1, Members: []int32{3}}}, // b-0030 … b-0039 and b-late
		{{Hier: 0, Level: 0, Members: []int32{late, 5}}},
		{{Hier: 0, Level: 1, Members: []int32{newMid}}}, // b-later alone
		{{Hier: 0, Level: 1, Members: []int32{3, newMid, 9}}},
		{{Hier: 0, Level: 1, Members: []int32{3}}, {Hier: 1, Level: 0, Members: rangeMembers(0, 20)}},
	}
	// sum adds measure 0 over the rows a predicated scan selects: every
	// row of a block the store filtered, the rows the same prepared
	// vectors accept where it left filtering to the caller (the WAL tail).
	sum := func(st *Store, ps []storage.LevelPred) (total float64, rows int) {
		t.Helper()
		src := st.scan(storage.ColSet{}, ps)
		defer src.Close()
		var sc storage.BlockScratch
		for b := 0; b < src.Blocks(); b++ {
			cols, ok, err := src.Block(b, &sc)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; ok && r < cols.Rows; r++ {
				pass := true
				for _, p := range ps {
					pass = pass && (cols.Filtered || p.Accept[cols.Keys[p.Hier][r]])
				}
				if pass {
					total += cols.Meas[0][r]
					rows++
				}
			}
		}
		return total, rows
	}
	check := func(phase string, st *Store) {
		t.Helper()
		for i, ps := range preds {
			var want float64
			n := 0
		rows:
			for r := 0; r < res.Rows(); r++ {
				for _, p := range ps {
					hit := false
					for _, m := range p.Members {
						hit = hit || s.Hiers[p.Hier].Rollup(res.Keys[p.Hier][r], 0, p.Level) == m
					}
					if !hit {
						continue rows
					}
				}
				want += res.Meas[0][r]
				n++
			}
			if n == 0 {
				t.Fatalf("predicate set %d selects nothing in the reference", i)
			}
			if got, rows := sum(st, ps); got != want || rows != n {
				t.Errorf("%s, predicate set %d: %v over %d rows, the resident table says %v over %d", phase, i, got, rows, want, n)
			}
		}
	}
	check("in the WAL tail", st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if info := st.Info(); info.TailRows != 0 || info.SegmentRows != 270 {
		t.Fatalf("after Compact: %+v, want 270 rows in segments", info)
	}
	check("compacted", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if id, ok := st.Schema().Hiers[0].Dict(0).Lookup("b-later"); !ok || id != later {
		t.Fatalf("reopened dictionary holds b-later as %d (%v), want %d", id, ok, later)
	}
	if got := st.Schema().Hiers[0].Rollup(later, 0, 1); got != newMid {
		t.Fatalf("reopened b-later rolls up to %d, want %d", got, newMid)
	}
	check("reopened", st)
}

// TestAppendAfterDictionaryGrowthDuringFolds registers members and appends
// the rows that carry them from one goroutine — AddMember must not overlap
// an Append or a scan of its schema, a rule the caller can keep — while
// auto-compaction folds and merges on the store's own goroutine, which the
// caller cannot see: a fold rolls codes up through the level maps the store
// captured when the rows entered the tail, never through the live
// hierarchy. Run under the race detector.
func TestAppendAfterDictionaryGrowthDuringFolds(t *testing.T) {
	s := testSchema(t, 100)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 32, AutoCompactRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := s.Hiers[0]
	var want float64
	rows := 0
	for i := 0; i < 300; i++ {
		id := h.MustAddMember(itoa("late", i), itoa("late-m", i/7))
		if err := st.Append([]int32{id, int32(i % 50)}, []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
		if err := st.Append([]int32{int32(i % 100), int32(i % 50)}, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
		if i/7 == 40 {
			want += float64(i)
			rows++
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Info().Compactions < 2 {
		t.Fatalf("%d compactions: no background fold ran beside the appends", st.Info().Compactions)
	}
	mid, _ := h.Dict(1).Lookup(itoa("late-m", 40))
	src := st.scan(storage.ColSet{}, []storage.LevelPred{{Hier: 0, Level: 1, Members: []int32{mid}}})
	defer src.Close()
	var sc storage.BlockScratch
	var got float64
	n, decoded := 0, 0
	for b := 0; b < src.Blocks()-1; b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		decoded++
		if !cols.Filtered {
			t.Fatalf("segment block %d was not filtered by the store", b)
		}
		for r := 0; r < cols.Rows; r++ {
			got += cols.Meas[0][r]
			n++
		}
	}
	if got != want || n != rows {
		t.Fatalf("mid %d: %v over %d rows, want %v over %d", mid, got, n, want, rows)
	}
	if segs := st.Info().Segments; decoded == 0 || decoded > segs/4 {
		t.Fatalf("%d of %d segments decoded: zone maps written beside AddMember do not prune", decoded, segs)
	}
}
