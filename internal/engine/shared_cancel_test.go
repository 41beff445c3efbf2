package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// countingBackend is a fake segment backend that slices a resident
// fact into many small blocks and counts every decode, with a hook at
// a chosen decode number and an optional block that fails to decode —
// the instrument for proving a scan's segment path notices cancellation
// and decode errors promptly instead of decoding to the end.
type countingBackend struct {
	f         *storage.FactTable
	blockRows int
	decodes   atomic.Int64
	onDecode  func(n int64)
	// failBlock, when positive, is the block whose decode fails;
	// afterFail counts the decodes requested once it has.
	failBlock int
	failed    atomic.Bool
	afterFail atomic.Int64
}

var errBadBlock = errors.New("countingBackend: injected decode error")

func (b *countingBackend) Rows() int { return b.f.Rows() }

func (b *countingBackend) Append([]int32, []float64) error {
	return errors.New("countingBackend: append not supported")
}

func (b *countingBackend) Info() storage.SegmentInfo {
	return storage.SegmentInfo{Segments: b.blocks(), SegmentRows: b.f.Rows()}
}

func (b *countingBackend) blocks() int {
	return (b.f.Rows() + b.blockRows - 1) / b.blockRows
}

func (b *countingBackend) Snapshot(storage.ColSet, []storage.LevelPred) storage.ScanSource {
	return &countingSource{b: b}
}

type countingSource struct{ b *countingBackend }

func (s *countingSource) Rows() int   { return s.b.f.Rows() }
func (s *countingSource) Blocks() int { return s.b.blocks() }
func (s *countingSource) Close()      {}

func (s *countingSource) BlockRows(bi int) int {
	lo := bi * s.b.blockRows
	hi := min(lo+s.b.blockRows, s.b.f.Rows())
	return hi - lo
}

func (s *countingSource) Block(bi int, _ *storage.BlockScratch) (storage.BlockCols, bool, error) {
	if s.b.failed.Load() {
		s.b.afterFail.Add(1)
	}
	if s.b.failBlock > 0 && bi == s.b.failBlock {
		s.b.failed.Store(true)
		return storage.BlockCols{}, false, errBadBlock
	}
	n := s.b.decodes.Add(1)
	if s.b.onDecode != nil {
		s.b.onDecode(n)
	}
	lo := bi * s.b.blockRows
	hi := min(lo+s.b.blockRows, s.b.f.Rows())
	cols := storage.BlockCols{Rows: hi - lo}
	for _, k := range s.b.f.Keys {
		cols.Keys = append(cols.Keys, k[lo:hi])
	}
	for _, m := range s.b.f.Meas {
		cols.Meas = append(cols.Meas, m[lo:hi])
	}
	return cols, true, nil
}

// TestSharedScanSegmentCancelPrompt cancels both attached queries after
// a handful of block decodes on a many-block (segment-path) shared
// scan. Regression: workers used to notice cancellation only at morsel
// granularity after each decode and kept claiming blocks while every
// query was already dead; now the claim loop sweeps contexts before
// each decode, so at most the in-flight decodes (one per worker) can
// land after the cancellation.
func TestSharedScanSegmentCancelPrompt(t *testing.T) {
	const workers = 4
	const cancelAt = 5
	s := twoHierSchema(60, 11)
	res := intFact(s, 4000, 3)
	backend := &countingBackend{f: res, blockRows: 10}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	backend.onDecode = func(n int64) {
		if n == cancelAt {
			cancel()
		}
	}

	e := New()
	e.SetParallelism(workers)
	e.SetParallelMinRows(1)
	seg := storage.NewSegmentTable(s, backend)
	if err := e.Register("T", seg); err != nil {
		t.Fatal(err)
	}

	reqs := []ScanReq{
		{Ctx: ctx, Query: Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1}}},
		{Ctx: ctx, Query: Query{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{2}}},
	}
	results := e.SharedScan("T", reqs)

	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("request %d: err %v, want context.Canceled", i, r.Err)
		}
	}
	decodes := backend.decodes.Load()
	if max := int64(cancelAt + workers); decodes > max {
		t.Errorf("scan decoded %d blocks after mid-scan cancellation, want ≤ %d (of %d total)",
			decodes, max, backend.blocks())
	}

	// A scan entered with an already-dead context must not decode a
	// single block: the claim loop sweeps contexts before paying for a
	// decode, not after.
	backend.onDecode = nil
	before := backend.decodes.Load()
	results = e.SharedScan("T", reqs)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("dead-context request %d: err %v, want context.Canceled", i, r.Err)
		}
	}
	if got := backend.decodes.Load(); got != before {
		t.Errorf("dead-context scan decoded %d blocks, want 0", got-before)
	}
}

// TestSharedScanLazyConcurrentAppendRace hammers the late-materialized
// segment path under -race: parallel shared scans with predicated
// queries (pooled selection bitmaps, per-worker block scratch, gather
// decode) racing WAL appends and snapshot turnover on a real colstore
// backend. The assertions are weak on purpose — no errors, plausible
// results — because the value of the test is what the race detector
// sees in the pooled buffers.
func TestSharedScanLazyConcurrentAppendRace(t *testing.T) {
	s := twoHierSchema(60, 11)
	f := intFact(s, 4000, 7)
	resident := New()
	if err := resident.Register("T", f); err != nil {
		t.Fatal(err)
	}
	e := segmentEngine(t, resident, func(e *Engine) {
		e.SetParallelism(4)
		e.SetParallelMinRows(50)
		e.SetMorselSize(64)
	})
	seg, ok := e.Fact("T")
	if !ok {
		t.Fatal("segment fact not registered")
	}

	const scanners = 4
	const scansEach = 20
	stop := make(chan struct{})
	var appender, scanWG sync.WaitGroup

	// Appender: WAL appends race the scans' snapshots. Existing member
	// codes only, so engine-side rollup maps stay valid.
	appender.Add(1)
	go func() {
		defer appender.Done()
		rng := rand.New(rand.NewSource(99))
		nk := s.Hiers[0].Dict(0).Len()
		nc := s.Hiers[1].Dict(0).Len()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := float64(rng.Intn(2001) - 1000)
			if err := seg.Append([]int32{int32(rng.Intn(nk)), int32(rng.Intn(nc))}, []float64{v, v, v, v, 0}); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()

	for w := 0; w < scanners; w++ {
		scanWG.Add(1)
		go func(w int) {
			defer scanWG.Done()
			qs := sharedQueryMix(t, s)
			for i := 0; i < scansEach; i++ {
				// Rotate the batch so predicated and unpredicated queries
				// mix differently across concurrent passes.
				lo := (w + i) % len(qs)
				batch := append(append([]Query{}, qs[lo:]...), qs[:lo]...)
				reqs := make([]ScanReq, len(batch))
				for j, q := range batch {
					reqs[j] = ScanReq{Ctx: context.Background(), Query: q}
				}
				for j, r := range e.SharedScan("T", reqs) {
					if r.Err != nil {
						t.Errorf("scanner %d pass %d query %d: %v", w, i, j, r.Err)
						return
					}
					if r.Cube == nil {
						t.Errorf("scanner %d pass %d query %d: nil cube", w, i, j)
						return
					}
				}
			}
		}(w)
	}
	scanWG.Wait()
	close(stop)
	appender.Wait()
}

// TestSharedScanQueryBlockSkip asserts the engine-side bitmap actually
// skips blocks for a predicated query when zone maps cannot: the
// predicate member exists only in early rows, but every block's zone
// range covers it, so only code-space evaluation proves later blocks
// empty for that query while an unpredicated companion keeps them
// decoded.
func TestSharedScanQueryBlockSkip(t *testing.T) {
	s := twoHierSchema(64, 4)
	f := storage.NewFactTable(s)
	nc := s.Hiers[1].Dict(0).Len()
	const rows = 4096
	for r := 0; r < rows; r++ {
		c := int32(r % nc)
		// Code 2 appears only in the first quarter; blocks keep zone
		// range [0, nc) via the other codes.
		if c == 2 && r >= rows/4 {
			c = 3
		}
		v := float64(r % 101)
		f.MustAppend([]int32{int32(r % 64), c}, []float64{v, v, v, v, 0})
	}
	resident := New()
	if err := resident.Register("T", f); err != nil {
		t.Fatal(err)
	}
	e := segmentEngine(t, resident, func(*Engine) {})
	cRef, _ := s.FindLevel("c")
	pq := Query{
		Fact:     "T",
		Group:    mdm.MustGroupBy(s, "g"),
		Preds:    []Predicate{{Level: cRef, Members: []int32{2}}},
		Measures: []int{0},
	}
	uq := Query{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{0}}

	before := mSharedQueryBlocksSkipped.Value()
	results := e.SharedScan("T", []ScanReq{
		{Ctx: context.Background(), Query: pq},
		{Ctx: context.Background(), Query: uq},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if d := mSharedQueryBlocksSkipped.Value() - before; d == 0 {
		t.Fatal("predicated query never skipped a decoded block via its selection bitmap")
	}
	for i, q := range []Query{pq, uq} {
		want, err := e.aggregate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i].Cube
		if got.Len() != want.Len() {
			t.Fatalf("query %d: %d cells, want %d", i, got.Len(), want.Len())
		}
		for j := range want.Cols {
			for ci := range want.Coords {
				if got.Cols[j][ci] != want.Cols[j][ci] {
					t.Fatalf("query %d cell %d: shared %v, solo %v", i, ci, got.Cols[j][ci], want.Cols[j][ci])
				}
			}
		}
	}
}

// TestSharedScanSegmentUncancelledStillComplete guards the fix's other
// side: a shared scan over the fake backend with live contexts must
// decode every block and match solo results.
func TestSharedScanSegmentUncancelledStillComplete(t *testing.T) {
	s := twoHierSchema(60, 11)
	res := intFact(s, 2000, 3)
	backend := &countingBackend{f: res, blockRows: 10}

	solo := New()
	if err := solo.Register("T", res); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.SetParallelism(4)
	e.SetParallelMinRows(1)
	if err := e.Register("T", storage.NewSegmentTable(s, backend)); err != nil {
		t.Fatal(err)
	}

	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1, 2}}
	reqs := []ScanReq{
		{Ctx: context.Background(), Query: q},
		{Ctx: context.Background(), Query: Query{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{0}}},
	}
	results := e.SharedScan("T", reqs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	want, err := solo.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].Cube
	if got.Len() != want.Len() {
		t.Fatalf("shared result has %d cells, solo %d", got.Len(), want.Len())
	}
	for i, coord := range want.Coords {
		j, ok := got.Lookup(coord)
		if !ok {
			t.Fatalf("missing coordinate %v", coord)
		}
		for c := range want.Cols {
			if want.Cols[c][i] != got.Cols[c][j] {
				t.Fatalf("cell %v col %d: %v vs %v", coord, c, got.Cols[c][j], want.Cols[c][i])
			}
		}
	}
	if decodes := backend.decodes.Load(); decodes < int64(backend.blocks()) {
		t.Fatalf("only %d of %d blocks decoded on an uncancelled scan", decodes, backend.blocks())
	}
}

// TestScanCancelBatchOfOne: an unbatched scan — ScanWithOps as the
// distributed worker calls it, GetContext as /assess calls it with no
// batcher installed — is a batch of one, and its context is honoured
// like any member's. Cancelled from inside the k-th block decode, the
// scan returns context.Canceled having decoded at most the blocks
// already in flight, one per worker.
func TestScanCancelBatchOfOne(t *testing.T) {
	const cancelAt = 5
	s := twoHierSchema(60, 11)
	res := intFact(s, 4000, 3)
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1}}
	for _, workers := range []int{1, 4} {
		scans := map[string]func(*Engine, context.Context) error{
			"ScanWithOps": func(e *Engine, ctx context.Context) error {
				_, err := e.ScanWithOps(ctx, q, []mdm.AggOp{mdm.AggSum, mdm.AggAvg}, []string{"s", "a"})
				return err
			},
			"GetContext": func(e *Engine, ctx context.Context) error {
				_, err := e.GetContext(ctx, q)
				return err
			},
		}
		for name, scan := range scans {
			backend := &countingBackend{f: res, blockRows: 10}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			backend.onDecode = func(n int64) {
				if n == cancelAt {
					cancel()
				}
			}
			e := New()
			e.SetParallelism(workers)
			e.SetParallelMinRows(1)
			if err := e.Register("T", storage.NewSegmentTable(s, backend)); err != nil {
				t.Fatal(err)
			}
			detached := mSharedDetached.Value()
			if err := scan(e, ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %d workers: err %v, want context.Canceled", name, workers, err)
			}
			if got, most := backend.decodes.Load(), int64(cancelAt+workers); got > most {
				t.Errorf("%s, %d workers: decoded %d blocks after cancellation at block %d, want ≤ %d (of %d)",
					name, workers, got, cancelAt, most, backend.blocks())
			}
			if d := mSharedDetached.Value() - detached; d != 1 {
				t.Errorf("%s, %d workers: detached counter moved by %d, want 1", name, workers, d)
			}
		}
	}
}

// TestScanBlockError: the first block decode error stops further
// claims — at most the claims already in flight, one per other worker,
// reach the source afterwards — and every query still attached reports
// it, in a batch of one and in a batch of three, serial and parallel.
func TestScanBlockError(t *testing.T) {
	const failBlock = 7
	s := twoHierSchema(60, 11)
	res := intFact(s, 4000, 3)
	queries := []Query{
		{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{2}},
		{Fact: "T", Group: mdm.MustGroupBy(s), Measures: []int{4}},
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 3} {
			backend := &countingBackend{f: res, blockRows: 10, failBlock: failBlock}
			e := New()
			e.SetParallelism(workers)
			e.SetParallelMinRows(1)
			if err := e.Register("T", storage.NewSegmentTable(s, backend)); err != nil {
				t.Fatal(err)
			}
			reqs := make([]ScanReq, batch)
			for i := range reqs {
				reqs[i] = ScanReq{Ctx: context.Background(), Query: queries[i]}
			}
			morsels := mMorsels.Value()
			for i, r := range e.SharedScan("T", reqs) {
				if !errors.Is(r.Err, errBadBlock) {
					t.Errorf("%d workers, batch of %d, query %d: err %v, want the decode error", workers, batch, i, r.Err)
				}
			}
			if got := backend.afterFail.Load(); got >= int64(workers) {
				t.Errorf("%d workers, batch of %d: %d blocks requested after the failure, want < %d (of %d)",
					workers, batch, got, workers, backend.blocks())
			}
			// Blocks 0..failBlock-1 hold one morsel each and were all
			// claimed before the failing one.
			if got := mMorsels.Value() - morsels; got < failBlock {
				t.Errorf("%d workers, batch of %d: %d morsels reported, want ≥ %d", workers, batch, got, failBlock)
			}
		}
	}
}
