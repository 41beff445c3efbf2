package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/persist"
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

// queryMix builds a mix of distinct queries over twoHierSchema:
// different group-by sets, measure subsets, and predicates (the
// predicated ones exercise pruning and late materialization on segment
// backends).
func queryMix(t *testing.T, s *mdm.Schema) []Query {
	t.Helper()
	gRef, gID := member(t, s, "g", memberName(3))
	kRef, kID := member(t, s, "k", memberName(5))
	return []Query{
		{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1, 2, 3, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g", "c"), Measures: []int{0, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Measures: []int{2, 3}},
		{Fact: "T", Group: mdm.MustGroupBy(s), Measures: []int{0, 1}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "k", "c"), Measures: []int{0}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "c"), Preds: []Predicate{{Level: gRef, Members: []int32{gID}}}, Measures: []int{0, 4}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Preds: []Predicate{{Level: kRef, Members: []int32{kID}}}, Measures: []int{1, 2}},
		{Fact: "T", Group: mdm.MustGroupBy(s, "g"), Measures: []int{3}},
	}
}

// segmentEngine re-registers the fact from a colstore directory with
// tiny segments, so scans see many blocks and zone maps have something
// to prune.
func segmentEngine(t *testing.T, src *Engine, cfg func(*Engine)) *Engine {
	t.Helper()
	f, _ := src.Fact("T")
	dir := t.TempDir()
	opts := colstore.Options{SegmentRows: 256, AutoCompactRows: -1}
	if err := persist.SaveCubeDir(dir, f, opts); err != nil {
		t.Fatal(err)
	}
	seg, st, err := persist.OpenCubeDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := New()
	cfg(e)
	if err := e.Register("T", seg); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScanSegmentCancelPrompt cancels a query after a handful of block
// decodes on a many-block (segment-path) parallel scan. Regression:
// workers used to notice cancellation only at morsel granularity after
// each decode and kept claiming blocks while the query was already dead;
// now the claim loop polls the context before each decode, so at most
// the in-flight decodes (one per worker) can land after the
// cancellation.
func TestScanSegmentCancelPrompt(t *testing.T) {
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

	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1}}
	if _, err := e.aggregate(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("err %v, want context.Canceled", err)
	}
	decodes := backend.decodes.Load()
	if max := int64(cancelAt + workers); decodes > max {
		t.Errorf("scan decoded %d blocks after mid-scan cancellation, want ≤ %d (of %d total)",
			decodes, max, backend.blocks())
	}

	// A scan entered with an already-dead context must not decode a
	// single block: the claim loop polls the context before paying for a
	// decode, not after.
	backend.onDecode = nil
	before := backend.decodes.Load()
	if _, err := e.aggregate(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("dead-context scan: err %v, want context.Canceled", err)
	}
	if got := backend.decodes.Load(); got != before {
		t.Errorf("dead-context scan decoded %d blocks, want 0", got-before)
	}
}

// TestScanLazyConcurrentAppendRace hammers the late-materialized
// segment path under -race: concurrent parallel scans of predicated and
// unpredicated queries (backend selection bitmaps, pooled per-worker
// block scratch, gather decode) racing WAL appends and snapshot turnover
// on a real colstore backend. The assertions are weak on purpose — no errors, plausible
// results — because the value of the test is what the race detector
// sees in the pooled buffers.
func TestScanLazyConcurrentAppendRace(t *testing.T) {
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
			qs := queryMix(t, s)
			for i := 0; i < scansEach; i++ {
				// Each scanner starts its round at a different query, so
				// predicated and unpredicated scans overlap differently
				// across the concurrent scanners.
				for j := range qs {
					c, err := e.aggregate(context.Background(), qs[(w+i+j)%len(qs)])
					if err != nil {
						t.Errorf("scanner %d pass %d query %d: %v", w, i, j, err)
						return
					}
					if c == nil {
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

// TestScanCancelBatchOfOne: every entry point into a scan — ScanWithOps
// as the distributed worker calls it, GetContext as /assess calls it —
// honours its context, serial and parallel. Cancelled from inside the
// k-th block decode, the scan returns context.Canceled having decoded at
// most the blocks already in flight, one per worker, and counts one
// detached request.
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
			detached := mCancelled.Value()
			if err := scan(e, ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %d workers: err %v, want context.Canceled", name, workers, err)
			}
			if got, most := backend.decodes.Load(), int64(cancelAt+workers); got > most {
				t.Errorf("%s, %d workers: decoded %d blocks after cancellation at block %d, want ≤ %d (of %d)",
					name, workers, got, cancelAt, most, backend.blocks())
			}
			if d := mCancelled.Value() - detached; d != 1 {
				t.Errorf("%s, %d workers: detached counter moved by %d, want 1", name, workers, d)
			}
		}
	}
}

// TestScanBlockError: the first block decode error stops further
// claims — at most the claims already in flight, one per other worker,
// reach the source afterwards — and the query reports it, serial and
// parallel.
func TestScanBlockError(t *testing.T) {
	const failBlock = 7
	s := twoHierSchema(60, 11)
	res := intFact(s, 4000, 3)
	q := Query{Fact: "T", Group: mdm.MustGroupBy(s, "k"), Measures: []int{0, 1}}
	for _, workers := range []int{1, 4} {
		backend := &countingBackend{f: res, blockRows: 10, failBlock: failBlock}
		e := New()
		e.SetParallelism(workers)
		e.SetParallelMinRows(1)
		if err := e.Register("T", storage.NewSegmentTable(s, backend)); err != nil {
			t.Fatal(err)
		}
		morsels := mMorsels.Value()
		if _, err := e.aggregate(context.Background(), q); !errors.Is(err, errBadBlock) {
			t.Errorf("%d workers: err %v, want the decode error", workers, err)
		}
		if got := backend.afterFail.Load(); got >= int64(workers) {
			t.Errorf("%d workers: %d blocks requested after the failure, want < %d (of %d)",
				workers, got, workers, backend.blocks())
		}
		// Blocks 0..failBlock-1 hold one morsel each and were all
		// claimed before the failing one.
		if got := mMorsels.Value() - morsels; got < failBlock {
			t.Errorf("%d workers: %d morsels reported, want ≥ %d", workers, got, failBlock)
		}
	}
}
