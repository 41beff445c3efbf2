package colstore

import (
	"math"
	"math/rand"
	"testing"

	"github.com/assess-olap/assess/internal/storage"
)

// refUnpack is the per-slot reference decode: one unpackU64 per value,
// exactly what the decoders did before the word-at-a-time kernels. The
// kernels must agree with it bit-for-bit at every width.
func refUnpack(n int, w uint, payload []byte) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = unpackU64(payload, i, w)
	}
	return out
}

func packAll(vals []uint64, w uint) []byte {
	payload := make([]byte, packedLen(len(vals), w))
	for i, v := range vals {
		packU64(payload, i, w, v)
	}
	return payload
}

// TestWordDecodeAllWidths cross-checks the word-at-a-time kernels
// against the per-slot reference at every packable width, including the
// byte-aligned specializations and lengths that end mid-word.
func TestWordDecodeAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{1, 2, 7, 63, 64, 65, 127, 509, 1000}
	for w := uint(1); w <= maxPackWidth; w++ {
		for _, n := range lengths {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & (1<<w - 1)
			}
			payload := packAll(vals, w)
			want := refUnpack(n, w, payload)

			if w <= 31 { // key codes are int32
				const lo = int32(-3)
				got := make([]int32, n)
				unpackWordsKeys(got, lo, w, payload)
				for i := range got {
					if exp := lo + int32(want[i]); got[i] != exp {
						t.Fatalf("keys w=%d n=%d slot %d: got %d want %d", w, n, i, got[i], exp)
					}
				}
			}

			const base = int64(-70000)
			gotF := make([]float64, n)
			unpackWordsFOR(gotF, base, w, payload)
			for i := range gotF {
				if exp := float64(base + int64(want[i])); gotF[i] != exp {
					t.Fatalf("FOR w=%d n=%d slot %d: got %v want %v", w, n, i, gotF[i], exp)
				}
			}

			gotD := make([]float64, n)
			unpackWordsDelta(gotD, base, w, payload)
			v := base
			for i := range gotD {
				v += unzigzag(want[i])
				if exp := float64(v); gotD[i] != exp {
					t.Fatalf("delta w=%d n=%d slot %d: got %v want %v", w, n, i, gotD[i], exp)
				}
			}
		}
	}
}

// TestEncodeDecodeRandomRoundTrip hammers the full encode→decode pair
// with value shapes that land on every encoding.
func TestEncodeDecodeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(700)
		keys := make([]int32, n)
		meas := make([]float64, n)
		span := []int32{1, 2, 255, 4000, 1 << 20, 1 << 30}[trial%6]
		for i := range keys {
			keys[i] = rng.Int31n(span)
			switch trial % 4 {
			case 0: // small ints → FOR
				meas[i] = float64(rng.Intn(1000))
			case 1: // ramp → delta
				meas[i] = float64(trial*1000 + i + rng.Intn(3))
			case 2: // fractional → raw
				meas[i] = rng.Float64() * 100
			default: // const-ish
				meas[i] = 42
			}
		}
		enc, width, base, payload := encodeKeys(keys)
		gotK := make([]int32, n)
		decodeKeys(gotK, enc, width, base, payload)
		for i := range keys {
			if gotK[i] != keys[i] {
				t.Fatalf("trial %d key slot %d: got %d want %d (enc %d w %d)", trial, i, gotK[i], keys[i], enc, width)
			}
		}
		menc, mwidth, mbase, mpayload := encodeMeas(meas)
		gotM := make([]float64, n)
		decodeMeas(gotM, menc, mwidth, mbase, mpayload)
		for i := range meas {
			if gotM[i] != meas[i] {
				t.Fatalf("trial %d meas slot %d: got %v want %v (enc %d w %d)", trial, i, gotM[i], meas[i], menc, mwidth)
			}
		}
	}
}

// TestGatherMeasMatchesFullDecode checks that selective gather decode
// produces, on the selected slots, exactly what a full decode produces —
// and that unsupported encodings refuse.
func TestGatherMeasMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 777
	cases := map[string][]float64{
		"raw": make([]float64, n),
		"for": make([]float64, n),
	}
	for i := 0; i < n; i++ {
		cases["raw"][i] = rng.NormFloat64() * 1e6 // fractional → mencRaw
		cases["for"][i] = float64(rng.Intn(5000)) // alternating wide ints ↓
	}
	// Defeat delta: alternate extremes so delta width exceeds FOR width.
	for i := 0; i < n; i += 2 {
		cases["for"][i] = 4999
	}
	for name, vals := range cases {
		enc, width, base, payload := encodeMeas(vals)
		if name == "raw" && enc != mencRaw || name == "for" && enc != mencFOR {
			t.Fatalf("%s: unexpected encoding %d", name, enc)
		}
		full := make([]float64, n)
		decodeMeas(full, enc, width, base, payload)
		sel := make([]uint64, (n+63)>>6)
		selected := 0
		for r := 0; r < n; r++ {
			if rng.Intn(10) == 0 {
				sel[r>>6] |= 1 << uint(r&63)
				selected++
			}
		}
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.NaN() // gather must not touch unselected slots
		}
		if !gatherMeas(dst, enc, width, base, payload, sel) {
			t.Fatalf("%s: gather refused a supported encoding", name)
		}
		for r := 0; r < n; r++ {
			if sel[r>>6]>>(uint(r)&63)&1 != 0 {
				if dst[r] != full[r] {
					t.Fatalf("%s: selected slot %d: got %v want %v", name, r, dst[r], full[r])
				}
			} else if !math.IsNaN(dst[r]) {
				t.Fatalf("%s: unselected slot %d was written", name, r)
			}
		}
	}
	// Delta and const require sequential/free decode and must refuse.
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(1000 + i)
	}
	if enc, width, base, payload := encodeMeas(ramp); enc != mencDelta {
		t.Fatalf("ramp did not delta-encode (enc %d)", enc)
	} else if gatherMeas(make([]float64, n), enc, width, base, payload, make([]uint64, (n+63)>>6)) {
		t.Fatal("gather accepted delta encoding")
	}
}

// lazyFixture builds a 4-segment store (250 rows each) where hierarchy 1
// code 7 appears ONLY in segment 0, while every segment's hierarchy-1
// zone map spans [0, 49] — so a pred on code 7 is invisible to zone maps
// and only row-level code-space evaluation can skip segments 1..3.
func lazyFixture(t *testing.T, opts Options) (*Store, [][]int32, [][]float64) {
	t.Helper()
	s := testSchema(t, 500)
	opts.SegmentRows = 250
	opts.AutoCompactRows = -1
	st, err := Create(t.TempDir(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	keys, meas := genRows(s, 1000, 21)
	for r := range keys[1] {
		keys[1][r] = int32(r % 50)
		if r >= 250 && keys[1][r] == 7 {
			keys[1][r] = 8
		}
	}
	appendRows(t, st, keys, meas)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.Info().Segments; got != 4 {
		t.Fatalf("fixture segments = %d, want 4", got)
	}
	return st, keys, meas
}

// lazySum scans with the given preds and sums measure 0 over the rows
// the source reports accepted (the Sel bitmap when present, every row
// otherwise filtered manually by accept).
func lazySum(t *testing.T, st *Store, preds []storage.LevelPred, accept func(h0, h1 int32) bool) (sum float64, rows int) {
	t.Helper()
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
		for r := 0; r < cols.Rows; r++ {
			if cols.Sel != nil {
				if !cols.Selected(r) {
					continue
				}
			} else if !accept(cols.Keys[0][r], cols.Keys[1][r]) {
				continue
			}
			sum += cols.Meas[0][r]
			rows++
		}
	}
	return sum, rows
}

// countingBlob records every byte range a scan fetches from a segment.
type countingBlob struct {
	blob
	fetched *[][2]int64 // [off, off+n)
}

func (b countingBlob) bytes(off int64, n int, scratch *[]byte) ([]byte, error) {
	*b.fetched = append(*b.fetched, [2]int64{off, off + int64(n)})
	return b.blob.bytes(off, n, scratch)
}

// TestPredOnlyColumnsNeverMaterialized pins the ColSet.PredOnly
// contract: a column that is filtered on but not grouped by is
// evaluated in code space and omitted from every block that carries a
// selection bitmap, while the bitmap itself stays identical to the
// materialize-then-filter path. On these (indexed) segments it also
// pins that the evaluation is sub-linear by count, not by timer: no
// bitmap is built by sweeping a column, and the payload of the column
// whose postings build the bitmap is not even fetched — with a single
// predicate, no predicate payload is.
func TestPredOnlyColumnsNeverMaterialized(t *testing.T) {
	st, keys, meas := lazyFixture(t, Options{})
	fetched := make([][][2]int64, len(st.segs))
	for i, seg := range st.segs {
		seg.blob = countingBlob{blob: seg.blob, fetched: &fetched[i]}
	}
	cases := []struct {
		name     string
		predOnly []bool
		preds    []storage.LevelPred
	}{
		{"single", []bool{false, true},
			[]storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7, 31}}}},
		{"intersect", []bool{true, true},
			[]storage.LevelPred{
				{Hier: 0, Level: 0, Members: rangeMembers(0, 200)},
				{Hier: 1, Level: 0, Members: []int32{2, 7, 31}},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: same predicates, no PredOnly — full
			// materialization path.
			var wantSum float64
			var wantRows int
			accept := func(r int) bool {
				for _, p := range tc.preds {
					ok := false
					for _, m := range p.Members {
						if keys[p.Hier][r] == m {
							ok = true
						}
					}
					if !ok {
						return false
					}
				}
				return true
			}
			for r := range keys[0] {
				if accept(r) {
					wantSum += meas[0][r]
					wantRows++
				}
			}
			for i := range fetched {
				fetched[i] = nil
			}
			linearBefore, postingsBefore := mSelectLinear.Value(), mSelectPostings.Value()
			defer func() {
				if mSelectLinear.Value() != linearBefore || mSelectPostings.Value() == postingsBefore {
					t.Fatalf("bitmaps built by %d sweeps and %d postings lookups, want postings only",
						mSelectLinear.Value()-linearBefore, mSelectPostings.Value()-postingsBefore)
				}
				for i, seg := range st.segs {
					touched := 0
					for _, p := range tc.preds {
						km := seg.foot.keys[p.Hier]
						for _, f := range fetched[i] {
							if f[0] < km.off+km.size && km.off < f[1] {
								touched++
								break
							}
						}
					}
					// Only predicates after the one that built the
					// bitmap probe their column's codes.
					if touched > len(tc.preds)-1 {
						t.Fatalf("segment %d: %d of %d predicate payloads fetched", i, touched, len(tc.preds))
					}
				}
			}()
			src := st.scan(storage.ColSet{PredOnly: tc.predOnly}, tc.preds)
			defer src.Close()
			var sc storage.BlockScratch
			var sum float64
			var rows, off int
			for b := 0; b < src.Blocks(); b++ {
				blockOff := off
				off += src.BlockRows(b)
				cols, ok, err := src.Block(b, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				if cols.Sel == nil {
					// Only the resident WAL tail may skip the bitmap,
					// and then every column must be present for the
					// consumer to filter itself.
					if b < src.Blocks()-1 {
						t.Fatalf("segment block %d without a bitmap", b)
					}
					for h := range tc.predOnly {
						if cols.Rows > 0 && cols.Keys[h] == nil {
							t.Fatalf("tail block lacks column %d", h)
						}
					}
				} else {
					for h, po := range tc.predOnly {
						if po && cols.Keys[h] != nil {
							t.Fatalf("block %d: pred-only column %d was materialized", b, h)
						}
					}
				}
				for r := 0; r < cols.Rows; r++ {
					if cols.Sel != nil {
						if !cols.Selected(r) {
							continue
						}
					} else if !accept(blockOff + r) {
						continue
					}
					sum += cols.Meas[0][r]
					rows++
				}
			}
			if sum != wantSum || rows != wantRows {
				t.Fatalf("pred-only scan %v/%d rows, want %v/%d", sum, rows, wantSum, wantRows)
			}
		})
	}
}

func rangeMembers(lo, hi int32) []int32 {
	ms := make([]int32, 0, hi-lo)
	for m := lo; m < hi; m++ {
		ms = append(ms, m)
	}
	return ms
}

func TestLazySkipsSegmentsZoneMapsCannot(t *testing.T) {
	st, keys, meas := lazyFixture(t, Options{})
	preds := []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7}}}
	accept := func(_, h1 int32) bool { return h1 == 7 }

	wantSum, wantRows := 0.0, 0
	for r := range keys[1] {
		if keys[1][r] == 7 {
			wantSum += meas[0][r]
			wantRows++
		}
	}
	if wantRows == 0 {
		t.Fatal("fixture has no matching rows")
	}

	prunedBefore := mPruned.Value()
	filteredBefore := mLazyFiltered.Value()
	skippedBefore := mLazySkipped.Value()
	gatheredBefore := mLazyGathered.Value()
	sum, rows := lazySum(t, st, preds, accept)
	if sum != wantSum || rows != wantRows {
		t.Fatalf("lazy scan: sum=%v rows=%d, want %v/%d", sum, rows, wantSum, wantRows)
	}
	if d := mPruned.Value() - prunedBefore; d != 0 {
		t.Fatalf("zone maps pruned %d segments; the fixture is built so they cannot", d)
	}
	if d := mLazyFiltered.Value() - filteredBefore; d != 4 {
		t.Fatalf("lazy filtered %d segments, want 4", d)
	}
	if d := mLazySkipped.Value() - skippedBefore; d != 3 {
		t.Fatalf("lazy skipped %d segments, want 3 (code 7 lives only in segment 0)", d)
	}
	// 5 of 250 rows match in segment 0 — far under the default cutoff,
	// so at least the raw-encoded measure must gather-decode.
	if d := mLazyGathered.Value() - gatheredBefore; d < 1 {
		t.Fatalf("no measure column gather-decoded (delta %d)", d)
	}
}

func TestLazyMatchesEager(t *testing.T) {
	predCases := [][]storage.LevelPred{
		{{Hier: 1, Level: 0, Members: []int32{7}}},
		{{Hier: 1, Level: 0, Members: []int32{0, 8, 13, 49}}},
		{{Hier: 0, Level: 1, Members: []int32{3, 17, 44}}},
		{
			{Hier: 0, Level: 1, Members: []int32{0, 1, 2, 3, 4}},
			{Hier: 1, Level: 0, Members: []int32{2, 7}},
		},
		nil,
	}
	st, _, _ := lazyFixture(t, Options{})
	eag, _, _ := lazyFixture(t, Options{Eager: true})
	for i, preds := range predCases {
		accept := func(h0, h1 int32) bool {
			for _, p := range preds {
				var code int32
				if p.Hier == 0 {
					code = h0
					if p.Level == 1 {
						code /= 10
					}
				} else {
					code = h1
				}
				hit := false
				for _, m := range p.Members {
					if m == code {
						hit = true
					}
				}
				if !hit {
					return false
				}
			}
			return true
		}
		lSum, lRows := lazySum(t, st, preds, accept)
		eSum, eRows := lazySum(t, eag, preds, accept)
		if lSum != eSum || lRows != eRows {
			t.Fatalf("case %d: lazy %v/%d != eager %v/%d", i, lSum, lRows, eSum, eRows)
		}
	}
}

func TestEagerOptionDisablesRowFiltering(t *testing.T) {
	st, _, _ := lazyFixture(t, Options{Eager: true})
	filteredBefore := mLazyFiltered.Value()
	src := st.scan(storage.ColSet{}, []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7}}})
	defer src.Close()
	var sc storage.BlockScratch
	for b := 0; b < src.Blocks(); b++ {
		cols, ok, err := src.Block(b, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if ok && cols.Sel != nil {
			t.Fatalf("block %d carries a selection bitmap on an eager store", b)
		}
	}
	if d := mLazyFiltered.Value() - filteredBefore; d != 0 {
		t.Fatalf("eager store lazily filtered %d segments", d)
	}
}

// TestGatherCutoffDisabled proves a zero cutoff forces full measure
// decode even for very sparse selections.
func TestGatherCutoffDisabled(t *testing.T) {
	st, keys, meas := lazyFixture(t, Options{})
	st.DisableGather()
	gatheredBefore := mLazyGathered.Value()
	wantSum, wantRows := 0.0, 0
	for r := range keys[1] {
		if keys[1][r] == 7 {
			wantSum += meas[0][r]
			wantRows++
		}
	}
	sum, rows := lazySum(t, st, []storage.LevelPred{{Hier: 1, Level: 0, Members: []int32{7}}},
		func(_, h1 int32) bool { return h1 == 7 })
	if sum != wantSum || rows != wantRows {
		t.Fatalf("sum=%v rows=%d, want %v/%d", sum, rows, wantSum, wantRows)
	}
	if d := mLazyGathered.Value() - gatheredBefore; d != 0 {
		t.Fatalf("gather ran %d times with the cutoff disabled", d)
	}
}

// TestConstFastPath exercises the O(1) const-key segment rejection
// directly: decodeInto must settle a const-encoded predicated column
// without building a bitmap or touching measures.
func TestConstFastPath(t *testing.T) {
	s := testSchema(t, 40)
	st, err := Create(t.TempDir(), s, Options{SegmentRows: 100, AutoCompactRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := [][]int32{make([]int32, 100), make([]int32, 100)}
	meas := [][]float64{make([]float64, 100), make([]float64, 100)}
	for r := 0; r < 100; r++ {
		keys[0][r] = 5 // const within the segment
		keys[1][r] = int32(r % 50)
		meas[0][r] = float64(r)
	}
	appendRows(t, st, keys, meas)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	seg := st.segs[0]
	if seg.foot.keys[0].enc != kencConst {
		t.Fatalf("hier 0 not const-encoded (enc %d)", seg.foot.keys[0].enc)
	}
	var sc storage.BlockScratch

	skippedBefore := mLazySkipped.Value()
	reject := st.plan([]storage.LevelPred{{Hier: 0, Level: 0, Members: []int32{6}}})
	cols, ok, err := seg.decodeInto(storage.ColSet{}, reject, 0.25, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("const-rejecting plan decoded the segment")
	}
	if cols.Keys[0] != nil || cols.Meas[0] != nil {
		t.Fatal("const rejection decoded columns")
	}
	if d := mLazySkipped.Value() - skippedBefore; d != 1 {
		t.Fatalf("const rejection skipped %d, want 1", d)
	}

	// Const-accepted: all rows pass, bitmap is the identity.
	pass := st.plan([]storage.LevelPred{{Hier: 0, Level: 0, Members: []int32{5}}})
	cols, ok, err = seg.decodeInto(storage.ColSet{}, pass, 0.25, &sc)
	if err != nil || !ok {
		t.Fatalf("const-accepting plan: ok=%v err=%v", ok, err)
	}
	if cols.Sel == nil || cols.SelCount != 100 {
		t.Fatalf("const-accepting plan: SelCount=%d, want identity over 100 rows", cols.SelCount)
	}
	for r := 0; r < 100; r++ {
		if !cols.Selected(r) {
			t.Fatalf("row %d not selected under const-accepting plan", r)
		}
		if cols.Meas[0][r] != float64(r) {
			t.Fatalf("row %d measure: got %v", r, cols.Meas[0][r])
		}
	}
}

// TestPreparedPruneMatchesLinear is the satellite-1 guard: the prepared
// probe (sorted members, min-max reject, binary search) must make
// exactly the decisions the linear member sweep makes, segment by
// segment — checked structurally over random predicates and then
// metric-asserted through a real scan.
func TestPreparedPruneMatchesLinear(t *testing.T) {
	st := pruneFixture(t)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		var preds []storage.LevelPred
		for np := 0; np <= trial%3; np++ {
			p := storage.LevelPred{Hier: rng.Intn(2)}
			if p.Hier == 0 {
				p.Level = rng.Intn(2)
			}
			span := []int{500, 50, 50}[p.Hier+p.Level]
			for nm := rng.Intn(6); nm >= 0; nm-- {
				p.Members = append(p.Members, int32(rng.Intn(span)))
			}
			if rng.Intn(10) == 0 {
				p.Members = nil // empty set: prunes everything, both ways
			}
			preds = append(preds, p)
		}
		pps := preparePreds(preds)
		for i, seg := range st.segs {
			lin := seg.foot.prunedBy(preds)
			prep := seg.foot.prunedByPreds(pps)
			if lin != prep {
				t.Fatalf("trial %d segment %d: linear=%v prepared=%v (preds %+v)", trial, i, lin, prep, preds)
			}
		}
	}

	// Metric-asserted: a scan's observed prune count equals the linear
	// sweep's prediction, for a prunable and an unprunable predicate.
	for _, preds := range [][]storage.LevelPred{
		{{Hier: 0, Level: 0, Members: []int32{3, 4, 5}}},   // segment 0 only
		{{Hier: 0, Level: 1, Members: []int32{30}}},        // segment 2 only
		{{Hier: 1, Level: 0, Members: []int32{7}}},         // no prunes
		{{Hier: 0, Level: 0, Members: nil}},                // all pruned
		{{Hier: 0, Level: 0, Members: []int32{124, 125}}},  // boundary pair
		{{Hier: 0, Level: 1, Members: []int32{0, 26, 49}}}, // three segments
	} {
		wantPruned := int64(0)
		for _, seg := range st.segs {
			if seg.foot.prunedBy(preds) {
				wantPruned++
			}
		}
		before := mPruned.Value()
		src := st.scan(storage.ColSet{}, preds)
		var sc storage.BlockScratch
		for b := 0; b < src.Blocks(); b++ {
			if _, _, err := src.Block(b, &sc); err != nil {
				t.Fatal(err)
			}
		}
		src.Close()
		if d := mPruned.Value() - before; d != wantPruned {
			t.Fatalf("preds %+v: scan pruned %d segments, linear sweep says %d", preds, d, wantPruned)
		}
	}
}

// TestPrunePlanProbe checks the storage.PrunePlanner implementation kept
// for the frozen benchmark module: per-block decisions must match
// PrunedFor.
func TestPrunePlanProbe(t *testing.T) {
	st := pruneFixture(t)
	src := st.Snapshot(storage.ColSet{}, nil)
	defer src.Close()
	planner, ok := src.(storage.PrunePlanner)
	if !ok {
		t.Fatal("snapshot does not implement PrunePlanner")
	}
	prober := src.(storage.PruneProber)
	for _, preds := range [][]storage.LevelPred{
		{{Hier: 0, Level: 0, Members: []int32{3}}},
		{{Hier: 0, Level: 1, Members: []int32{30}}},
		{{Hier: 1, Level: 0, Members: []int32{7}}},
		nil,
	} {
		plan := planner.PrunePlan(preds)
		for b := 0; b < src.Blocks(); b++ {
			if got, want := plan.Pruned(b), prober.PrunedFor(b, preds); got != want {
				t.Fatalf("preds %+v block %d: plan=%v prober=%v", preds, b, got, want)
			}
		}
	}
}
