package colstore

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

func popcount(sel []uint64) int {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestPostingsKernelMatchesLinear checks the index itself against the
// sweep it replaces, column by column: for every row count and packed
// width, the bitmap OR-ed from the accepted codes' posting lists equals
// the one selInitPacked builds off the packed payload word for word,
// and the offset-derived count equals its population.
func TestPostingsKernelMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rowCounts := []int{2, 63, 64, 65, 4097}
	if !testing.Short() {
		rowCounts = append(rowCounts, 1<<18)
	}
	for _, rows := range rowCounts {
		for w := uint(1); w <= 20; w++ {
			for _, sorted := range []bool{false, true} {
				const lo = int32(7)
				span := 1<<(w-1) + rng.Intn(1<<(w-1)) // codes lo..lo+span need exactly w bits
				col := make([]int32, rows)
				for r := range col {
					col[r] = lo + int32(rng.Intn(span+1))
				}
				col[0], col[rows-1] = lo, lo+int32(span)
				if sorted {
					// Non-decreasing with both extremes kept.
					for r := 1; r < rows-1; r++ {
						col[r] = lo + int32(r*span/rows)
					}
				}
				enc, width, base, payload := encodeKeys(col)
				if enc != kencPacked || uint(width) != w {
					t.Fatalf("rows=%d w=%d: column encoded as %d at %d bits", rows, w, enc, width)
				}
				pm, section := buildPostings(col, lo)
				if span+1 > rows {
					if pm.kind != postNone {
						t.Fatalf("rows=%d w=%d: %d codes indexed over %d rows", rows, w, span+1, rows)
					}
					continue
				}
				wantKind := uint8(postFull)
				if isSorted(col) {
					wantKind = postSorted
				}
				if pm.kind != wantKind {
					t.Fatalf("rows=%d w=%d sorted=%v: kind %d, want %d", rows, w, sorted, pm.kind, wantKind)
				}
				if pm.kind == postSorted && len(section) != 4*(span+2) {
					t.Fatalf("rows=%d w=%d: sorted column stores %d bytes, want offsets only", rows, w, len(section))
				}
				if err := pm.validate(section, rows); err != nil {
					t.Fatalf("rows=%d w=%d: fresh postings fail validation: %v", rows, w, err)
				}
				var p postings
				p.view(&pm, int32(uint32(base)), section)
				// Acceptance over a dictionary wider than the segment's
				// range on both sides, at three selectivities.
				for _, frac := range []float64{0, 0.01, 0.6} {
					acc := make([]bool, int(lo)+span+40)
					var codes []int32
					for c := range acc {
						if rng.Float64() < frac || frac > 0 && c == int(col[rows/2]) {
							acc[c] = true
							codes = append(codes, int32(c))
						}
					}
					want := make([]uint64, (rows+63)>>6)
					wantCount := selInitPacked(want, rows, acc, lo, w, payload)
					got := make([]uint64, len(want))
					clipped := p.clip(codes)
					p.fill(got, clipped)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("rows=%d w=%d sorted=%v frac=%v: word %d = %#x, linear says %#x", rows, w, sorted, frac, i, got[i], want[i])
						}
					}
					if n := p.count(clipped); n != wantCount || n != popcount(got) {
						t.Fatalf("rows=%d w=%d frac=%v: count %d, linear %d, popcount %d", rows, w, frac, n, wantCount, popcount(got))
					}
				}
			}
		}
	}
}

func isSorted(col []int32) bool {
	for i := 1; i < len(col); i++ {
		if col[i] < col[i-1] {
			return false
		}
	}
	return true
}

// propSchema has three hierarchies: H (3 000 base members, 10:1 to a
// second level), G (50 members, flat) and D (400 base members, 20:1).
func propSchema() *mdm.Schema {
	h := mdm.NewHierarchy("H", "base", "mid")
	for i := 0; i < 3000; i++ {
		h.MustAddMember(itoa("b", i), itoa("m", i/10))
	}
	g := mdm.NewHierarchy("G", "g")
	for i := 0; i < 50; i++ {
		g.MustAddMember(itoa("g", i))
	}
	d := mdm.NewHierarchy("D", "day", "month")
	for i := 0; i < 400; i++ {
		d.MustAddMember(itoa("d", i), itoa("mo", i/20))
	}
	return mdm.NewSchema("P", []*mdm.Hierarchy{h, g, d}, []mdm.Measure{
		{Name: "qty", Op: mdm.AggSum},
		{Name: "amt", Op: mdm.AggSum},
	})
}

// rewriteSegment copies the sections of the segment at path into a new
// file and ends it with foot's footer under the given magic — how the
// tests obtain layouts today's writer does not produce (version 1, raw
// key columns, damaged postings). extra, when non-nil, is appended as
// one more section and its (off, size, crc) passed to patch before the
// footer is rendered.
func rewriteSegment(t testing.TB, path, out string, magic []byte, extra []byte, patch func(foot *footer, off, size int64, crc uint32)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := openSegment(path, true)
	if err != nil {
		t.Fatal(err)
	}
	foot := *seg.foot
	foot.keys = append([]keyMeta(nil), foot.keys...)
	foot.post = append([]postMeta(nil), foot.post...)
	seg.release()
	footLen := int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
	body := append([]byte(nil), raw[:len(raw)-footLen]...)
	copy(body, magic)
	off := int64(len(body))
	body = append(body, extra...)
	if patch != nil {
		patch(&foot, off, int64(len(extra)), crc32.Checksum(extra, castTable))
	}
	if err := os.WriteFile(out, appendFooter(body, &foot), 0o644); err != nil {
		t.Fatal(err)
	}
}

// asV1 writes a copy of the segment in the version 1 layout (no
// postings entries; the sections stay behind as dead bytes).
func asV1(t testing.TB, path string) string {
	out := path + ".v1"
	rewriteSegment(t, path, out, segMagicV1, nil, func(foot *footer, _, _ int64, _ uint32) { foot.post = nil })
	return out
}

// withRawKey writes a copy of the segment whose key column h is
// raw-encoded (and therefore unindexed).
func withRawKey(t testing.TB, path string, h int, col []int32) string {
	payload := make([]byte, 4*len(col))
	for i, c := range col {
		binary.LittleEndian.PutUint32(payload[4*i:], uint32(c))
	}
	out := path + ".raw"
	rewriteSegment(t, path, out, segMagic, payload, func(foot *footer, off, size int64, crc uint32) {
		km := &foot.keys[h]
		km.enc, km.width, km.base = kencRaw, 32, 0
		km.off, km.size, km.crc = off, size, crc
		foot.post[h] = postMeta{}
	})
	return out
}

// TestSelectRowsMatchesLinear is the segment-level property: random
// segments of every column shape × random predicate sets, decoded once
// through postings and once through the linear sweep of a version 1
// copy of the same bytes. The two bitmaps must agree word for word, the
// count must be the population, and both must equal a row-at-a-time
// evaluation of the predicates on the input columns; needed columns
// must carry the input values on every selected row, whether the
// predicate column is also grouped by or predicate-only.
func TestSelectRowsMatchesLinear(t *testing.T) {
	s := propSchema()
	st := newStore(t.TempDir(), s, Options{})
	rng := rand.New(rand.NewSource(43))
	rowCounts := []int{1, 63, 64, 65, 4097, 4097, 4097}
	if !testing.Short() {
		rowCounts = append(rowCounts, 1<<18)
	}
	postingsBefore, linearBefore := mSelectPostings.Value(), mSelectLinear.Value()
	for trial, rows := range rowCounts {
		keys := [][]int32{make([]int32, rows), make([]int32, rows), make([]int32, rows)}
		meas := [][]float64{make([]float64, rows), make([]float64, rows)}
		hSpan := []int{2, 37, 1000, 3000}[rng.Intn(4)]
		hLo := rng.Intn(3000 - hSpan + 1)
		gConst := trial%3 == 2
		for r := 0; r < rows; r++ {
			keys[0][r] = int32(hLo + rng.Intn(hSpan))
			keys[1][r] = int32(rng.Intn(50))
			if gConst {
				keys[1][r] = 11
			}
			keys[2][r] = int32(100 + r*min(250, rows/2)/rows) // non-decreasing
			meas[0][r] = float64(rng.Intn(90))
			meas[1][r] = rng.Float64()
		}
		dir := t.TempDir()
		v2 := filepath.Join(dir, "a.seg")
		if _, err := writeSegment(v2, keys, meas, rows, st.ruMaps); err != nil {
			t.Fatal(err)
		}
		paths := []string{v2}
		if rows > 1 {
			paths = append(paths, withRawKey(t, v2, 0, keys[0]))
		}
		for _, path := range paths {
			for _, noMmap := range []bool{false, true} {
				idx, err := openSegment(path, noMmap)
				if err != nil {
					t.Fatal(err)
				}
				lin, err := openSegment(asV1(t, path), noMmap)
				if err != nil {
					t.Fatal(err)
				}
				if rows > 1 && idx.foot.post[2].kind != postSorted {
					t.Fatalf("rows=%d: sorted column indexed as kind %d", rows, idx.foot.post[2].kind)
				}
				cases := 24
				if rows > 1<<16 {
					cases = 8 // every shape once more; the small segments carry the breadth
				}
				for pc := 0; pc < cases; pc++ {
					preds := randomPreds(rng, s, pc)
					checkSelection(t, st, idx, lin, keys, meas, preds, rng.Intn(2) == 0)
				}
				idx.release()
				lin.release()
			}
		}
	}
	if mSelectPostings.Value() == postingsBefore || mSelectLinear.Value() == linearBefore {
		t.Fatal("the sweep did not exercise both access paths")
	}
}

// randomPreds draws 0–3 predicates: any level, sometimes two on one
// hierarchy, sometimes an empty member list; members span the whole
// dictionary, so many fall outside the segment's code range.
func randomPreds(rng *rand.Rand, s *mdm.Schema, pc int) []storage.LevelPred {
	var preds []storage.LevelPred
	for n := pc % 4; n > 0; n-- {
		p := storage.LevelPred{Hier: rng.Intn(len(s.Hiers))}
		if len(preds) > 0 && rng.Intn(4) == 0 {
			p.Hier = preds[0].Hier // a second predicate on one hierarchy intersects
		}
		p.Level = rng.Intn(s.Hiers[p.Hier].Depth())
		size := s.Hiers[p.Hier].Dict(p.Level).Len()
		for nm := []int{0, 1, 3, size / 2}[rng.Intn(4)]; nm > 0; nm-- {
			p.Members = append(p.Members, int32(rng.Intn(size)))
		}
		preds = append(preds, p)
	}
	return preds
}

func checkSelection(t *testing.T, st *Store, idx, lin *segment, keys [][]int32, meas [][]float64, preds []storage.LevelPred, predOnly bool) {
	t.Helper()
	rows := idx.foot.rows
	need := storage.ColSet{}
	if predOnly {
		need.PredOnly = make([]bool, len(keys))
		for _, p := range preds {
			need.PredOnly[p.Hier] = true
		}
	}
	members := make([]map[int32]bool, len(preds))
	for i, p := range preds {
		members[i] = make(map[int32]bool, len(p.Members))
		for _, m := range p.Members {
			members[i][m] = true
		}
	}
	accept := func(r int) bool {
		for i, p := range preds {
			if !members[i][st.schema.Hiers[p.Hier].Rollup(keys[p.Hier][r], 0, p.Level)] {
				return false
			}
		}
		return true
	}
	wantCount := 0
	for r := 0; r < rows; r++ {
		if accept(r) {
			wantCount++
		}
	}
	plan := st.plan(preds)
	var sa, sb storage.BlockScratch
	got, gotOK, err := idx.decodeInto(need, plan, gatherCutoff, &sa)
	if err != nil {
		t.Fatal(err)
	}
	ref, refOK, err := lin.decodeInto(need, plan, gatherCutoff, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != refOK || gotOK != (wantCount > 0) {
		t.Fatalf("preds %+v: indexed ok=%v, linear ok=%v, %d rows match", preds, gotOK, refOK, wantCount)
	}
	if !gotOK {
		return
	}
	if len(preds) == 0 {
		if got.Sel != nil {
			t.Fatal("bitmap on an unpredicated decode")
		}
	} else {
		if got.SelCount != wantCount || got.SelCount != popcount(got.Sel) || ref.SelCount != wantCount {
			t.Fatalf("preds %+v: SelCount %d, popcount %d, linear %d, reference %d", preds, got.SelCount, popcount(got.Sel), ref.SelCount, wantCount)
		}
		for w := range ref.Sel {
			if got.Sel[w] != ref.Sel[w] {
				t.Fatalf("preds %+v: bitmap word %d = %#x, linear says %#x", preds, w, got.Sel[w], ref.Sel[w])
			}
		}
	}
	for r := 0; r < rows; r++ {
		if got.Sel != nil && got.Selected(r) != accept(r) {
			t.Fatalf("preds %+v: row %d selected=%v, reference says %v", preds, r, got.Selected(r), accept(r))
		}
		if got.Sel != nil && !got.Selected(r) {
			continue
		}
		for h := range keys {
			if need.PredOnlyKey(h) {
				if got.Keys[h] != nil {
					t.Fatalf("preds %+v: predicate-only column %d materialized", preds, h)
				}
			} else if got.Keys[h][r] != keys[h][r] {
				t.Fatalf("preds %+v: key %d row %d = %d, want %d", preds, h, r, got.Keys[h][r], keys[h][r])
			}
		}
		for m := range meas {
			if got.Meas[m][r] != meas[m][r] {
				t.Fatalf("preds %+v: measure %d row %d = %v, want %v", preds, m, r, got.Meas[m][r], meas[m][r])
			}
		}
	}
}

// copyDir copies a fixture directory so a test may modify the store.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// v1Fixture is testdata/v1store: written by the last writer that knew
// no postings (600 rows of genRows(s, 600, 17) compacted into 256-row
// segments, then 20 rows of genRows(s, 20, 18) left in the WAL).
func v1Fixture(t testing.TB) (dir string, keys [][]int32, meas [][]float64) {
	t.Helper()
	s := testSchema(t, 120)
	keys, meas = genRows(s, 600, 17)
	moreK, moreM := genRows(s, 20, 18)
	for h := range keys {
		keys[h] = append(keys[h], moreK[h]...)
	}
	for m := range meas {
		meas[m] = append(meas[m], moreM[m]...)
	}
	return copyDir(t, filepath.Join("testdata", "v1store")), keys, meas
}

// fileMagic returns the first bytes of a segment file.
func fileMagic(t testing.TB, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw[:len(segMagic)])
}

// TestV1FixtureUpgrades pins the upgrade path: a store of version 1
// segments opens, answers predicated scans through the linear fallback,
// is rewritten by one Store.Compact() into version 2 segments, and
// answers identically — bit for bit — afterwards, also after a reopen.
func TestV1FixtureUpgrades(t *testing.T) {
	dir, keys, meas := v1Fixture(t)
	st, err := Open(dir, Options{SegmentRows: 256, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range st.segs {
		if seg.foot.post != nil || fileMagic(t, seg.path) != string(segMagicV1) {
			t.Fatalf("%s is not a version 1 segment", seg.path)
		}
	}
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, keys, meas, gotK, gotM)

	predCases := [][]storage.LevelPred{
		{{Hier: 1, Level: 0, Members: []int32{7, 31}}},
		{{Hier: 0, Level: 1, Members: []int32{2, 9}}},
		{{Hier: 0, Level: 0, Members: rangeMembers(20, 90)}, {Hier: 1, Level: 0, Members: []int32{3, 7, 44}}},
	}
	accept := func(preds []storage.LevelPred) func(h0, h1 int32) bool {
		return func(h0, h1 int32) bool {
			for _, p := range preds {
				code := []int32{h0, h1}[p.Hier]
				if p.Level == 1 {
					code /= 10
				}
				hit := false
				for _, m := range p.Members {
					hit = hit || m == code
				}
				if !hit {
					return false
				}
			}
			return true
		}
	}
	type answer struct {
		sum  float64
		rows int
	}
	scan := func(st *Store) []answer {
		out := make([]answer, len(predCases))
		for i, preds := range predCases {
			out[i].sum, out[i].rows = lazySum(t, st, preds, accept(preds))
		}
		return out
	}
	linearBefore, postingsBefore := mSelectLinear.Value(), mSelectPostings.Value()
	before := scan(st)
	for i, a := range before {
		if a.rows == 0 {
			t.Fatalf("case %d selects nothing; the fixture should match", i)
		}
	}
	if mSelectLinear.Value() == linearBefore || mSelectPostings.Value() != postingsBefore {
		t.Fatal("version 1 segments must select through the linear sweep only")
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range st.segs {
		if seg.foot.post == nil || fileMagic(t, seg.path) != string(segMagic) {
			t.Fatalf("%s was not upgraded", seg.path)
		}
	}
	if st.Rows() != 620 {
		t.Fatalf("rows after upgrade = %d, want 620", st.Rows())
	}
	// Hierarchy 1 (50 codes) is indexed in every rewritten segment;
	// hierarchy 0's codes span more than the 108 rows of the merged
	// runt, which therefore keeps sweeping that column.
	linearBefore, postingsBefore = mSelectLinear.Value(), mSelectPostings.Value()
	lazySum(t, st, predCases[0], accept(predCases[0]))
	if mSelectLinear.Value() != linearBefore || mSelectPostings.Value() != postingsBefore+int64(len(st.segs)) {
		t.Fatal("upgraded segments must select through postings only")
	}
	after := scan(st)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("case %d: %+v before upgrade, %+v after", i, before[i], after[i])
		}
	}
	gotK, gotM = readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, keys, meas, gotK, gotM)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") && fileMagic(t, filepath.Join(dir, e.Name())) != string(segMagic) {
			t.Fatalf("%s survives the upgrade in the old format", e.Name())
		}
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i, a := range scan(st2) {
		if a != before[i] {
			t.Fatalf("case %d after reopen: %+v, want %+v", i, a, before[i])
		}
	}
}

// TestEveryWritePathIndexes walks the three callers of writeSegment —
// bulk load, WAL fold, runt merge — and checks that each leaves
// version 2 segments only.
func TestEveryWritePathIndexes(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t, 400)
	w, err := CreateBulk(dir, s, Options{SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	keys, meas := genRows(s, 1000, 9)
	row := make([]int32, 2)
	for r := 0; r < 300; r++ {
		row[0], row[1] = keys[0][r], keys[1][r]
		if err := w.Append(row, []float64{meas[0][r], meas[1][r]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{SegmentRows: 128, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	allIndexed := func(stage string, wantSegs int) {
		t.Helper()
		if len(st.segs) != wantSegs {
			t.Fatalf("%s: %d segments, want %d", stage, len(st.segs), wantSegs)
		}
		for _, seg := range st.segs {
			if seg.foot.post == nil || fileMagic(t, seg.path) != string(segMagic) {
				t.Fatalf("%s: %s is not version 2", stage, seg.path)
			}
		}
	}
	allIndexed("bulk load", 3) // 128 + 128 + 44
	for lo := 300; lo < 1000; lo += 35 {
		hi := min(lo+35, 1000)
		appendRows(t, st, [][]int32{keys[0][lo:hi], keys[1][lo:hi]}, [][]float64{meas[0][lo:hi], meas[1][lo:hi]})
		if ok, err := st.foldWAL(); err != nil || !ok {
			t.Fatalf("fold: ok=%v err=%v", ok, err)
		}
	}
	allIndexed("WAL folds", 3+20)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(st.segs) >= 23 {
		t.Fatalf("runt merge left %d segments", len(st.segs))
	}
	allIndexed("runt merge", len(st.segs))
	gotK, gotM := readAll(t, st.Snapshot(storage.ColSet{}, nil), 2, 2)
	checkEqual(t, keys, meas, gotK, gotM)
}

// TestCorruptPostingsRejected covers the two ways a postings section
// can be wrong on disk: damaged bytes fail the checksum, and a section
// whose checksum is right but whose row ids are not a permutation (or
// whose offsets do not add up) fails validation — as errors naming a
// corrupt segment, on mmap and pread alike, while unpredicated decodes
// of the same file, which never touch the section, still work.
func TestCorruptPostingsRejected(t *testing.T) {
	s := testSchema(t, 100)
	st := newStore(t.TempDir(), s, Options{})
	keys, meas := genRows(s, 300, 5)
	path := filepath.Join(t.TempDir(), "a.seg")
	foot, err := writeSegment(path, keys, meas, 300, st.ruMaps)
	if err != nil {
		t.Fatal(err)
	}
	pm := foot.post[1]
	if pm.kind != postFull {
		t.Fatalf("fixture column indexed as kind %d", pm.kind)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	section := append([]byte(nil), raw[pm.off:pm.off+pm.size]...)
	ids := section[4*(pm.ncodes+1):]
	first := unpackU64(ids, 0, uint(pm.width))

	// Row id 1 := row id 0 — in range, but no longer a permutation.
	dup := append([]byte(nil), section...)
	dupIDs := dup[4*(pm.ncodes+1):]
	for b := uint(0); b < uint(pm.width); b++ { // clear slot 1, then copy slot 0 in
		bit := uint(pm.width) + b
		dupIDs[bit>>3] &^= 1 << (bit & 7)
	}
	packU64(dupIDs, 1, uint(pm.width), first)
	// offsets[1] := rows+1 — out of order against offsets[2..].
	offs := append([]byte(nil), section...)
	binary.LittleEndian.PutUint32(offs[4:], 301)

	preds := []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7}}}
	cases := []struct {
		name, wantErr string
		build         func(out string)
	}{
		{"flipped bit", "checksum mismatch", func(out string) {
			bad := append([]byte(nil), raw...)
			bad[pm.off+pm.size/2] ^= 0x10
			if err := os.WriteFile(out, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"not a permutation", "not a permutation", func(out string) {
			rewriteSegment(t, path, out, segMagic, dup, func(foot *footer, off, size int64, crc uint32) {
				foot.post[1].off, foot.post[1].size, foot.post[1].crc = off, size, crc
			})
		}},
		{"offsets out of order", "offsets out of order", func(out string) {
			rewriteSegment(t, path, out, segMagic, offs, func(foot *footer, off, size int64, crc uint32) {
				foot.post[1].off, foot.post[1].size, foot.post[1].crc = off, size, crc
			})
		}},
	}
	for _, tc := range cases {
		for _, noMmap := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "bad.seg")
			tc.build(out)
			seg, err := openSegment(out, noMmap)
			if err != nil {
				t.Fatalf("%s: open: %v", tc.name, err)
			}
			var sc storage.BlockScratch
			for attempt := 0; attempt < 2; attempt++ { // a failed check must not be cached as passed
				_, _, err = seg.decodeInto(storage.ColSet{}, st.plan(preds), gatherCutoff, &sc)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "corrupt segment") {
					t.Fatalf("%s (noMmap=%v): err = %v, want a corrupt-segment error mentioning %q", tc.name, noMmap, err, tc.wantErr)
				}
			}
			if _, ok, err := seg.decodeInto(storage.ColSet{}, nil, 0, &sc); err != nil || !ok {
				t.Fatalf("%s: unpredicated decode: ok=%v err=%v", tc.name, ok, err)
			}
			seg.release()
		}
	}

	// A footer that points a section outside the file, or sizes it
	// differently from what rows × width implies, is refused at open.
	for name, patch := range map[string]func(foot *footer){
		"postings past the end": func(foot *footer) { foot.post[1].off = int64(len(raw)) },
		"postings wrong length": func(foot *footer) { foot.post[1].size-- },
		"postings wide row ids": func(foot *footer) { foot.post[1].width = maxPackWidth + 1 },
		"postings too many codes": func(foot *footer) {
			foot.post[1].ncodes = 301
			foot.post[1].size += 4 * int64(301-pm.ncodes)
		},
		"key payload past the end": func(foot *footer) { foot.keys[1].off = int64(len(raw)) - 4 },
		"no rows":                  func(foot *footer) { foot.rows = 0 },
	} {
		out := filepath.Join(t.TempDir(), "bad.seg")
		rewriteSegment(t, path, out, segMagic, nil, func(foot *footer, _, _ int64, _ uint32) { patch(foot) })
		if seg, err := openSegment(out, false); err == nil {
			seg.release()
			t.Fatalf("%s: segment opened", name)
		} else if !strings.Contains(err.Error(), "corrupt segment") {
			t.Fatalf("%s: err = %v, want a corrupt-segment error", name, err)
		}
	}
}

// TestPostingsConcurrentUpgradeAndCompaction races predicated scans —
// whose first touch of each segment fills the shared verification cache
// — against the upgrade of the version 1 fixture, appends, WAL folds
// and merges. Every scan must see exactly the fixture's rows at the
// front of the store, whichever generation of segments it pinned.
func TestPostingsConcurrentUpgradeAndCompaction(t *testing.T) {
	dir, keys, meas := v1Fixture(t)
	st, err := Open(dir, Options{SegmentRows: 256, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	preds := []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{3, 7, 31, 44}}}
	want := map[int32]bool{3: true, 7: true, 31: true, 44: true}
	const fixed = 620
	wantSum, wantRows := 0.0, 0
	for r := 0; r < fixed; r++ {
		if want[keys[1][r]] {
			wantSum += meas[0][r]
			wantRows++
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc storage.BlockScratch
			preds := slices.Clone(preds) // each scan prepares its own
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := st.scan(storage.ColSet{PredOnly: []bool{false, true}}, preds)
				sum, rows, off := 0.0, 0, 0
				for b := 0; b < src.Blocks(); b++ {
					base := off
					off += src.BlockRows(b)
					cols, ok, err := src.Block(b, &sc)
					if err != nil {
						src.Close()
						t.Error(err)
						return
					}
					if !ok {
						continue
					}
					if b < src.Blocks()-1 && cols.Sel == nil {
						src.Close()
						t.Errorf("segment block %d came without a selection: the scan only pruned", b)
						return
					}
					for r := 0; r < cols.Rows && base+r < fixed; r++ {
						if cols.Sel != nil && !cols.Selected(r) || cols.Sel == nil && !want[cols.Keys[1][r]] {
							continue
						}
						sum += cols.Meas[0][r]
						rows++
					}
				}
				src.Close()
				if sum != wantSum || rows != wantRows {
					t.Errorf("scan saw %v/%d over the fixture rows, want %v/%d", sum, rows, wantSum, wantRows)
					return
				}
			}
		}()
	}
	moreK, moreM := genRows(st.Schema(), 900, 19)
	for round := 0; round < 6; round++ {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		lo := round * 150
		appendRows(t, st, [][]int32{moreK[0][lo : lo+150], moreK[1][lo : lo+150]}, [][]float64{moreM[0][lo : lo+150], moreM[1][lo : lo+150]})
	}
	close(stop)
	wg.Wait()
	for _, seg := range st.segs {
		if seg.foot.post == nil {
			t.Fatalf("%s is still version 1", seg.path)
		}
	}
}
