// The scan pipeline: every aggregate the engine computes from rows — a
// plain fact scan, a batch of N concurrently-arriving queries answered in
// one pass (SharedScan), a view build, a roll-up over a materialized
// view's columns — is one call of scan. A solo scan is a batch of one; a
// serial scan is one worker running the worker body on the calling
// goroutine; and the kernel each query accumulates through (kernel.go) is
// the same whether its slots are dense keys or come out of a slot table.
//
// Morsels: the data is split into fixed-size morsels (SetMorselSize,
// default 64 Ki rows) claimed off a shared atomic cursor, so fast workers
// steal the morsels slow ones never reach. Each worker aggregates into a
// private partial per query and the partials are merged in a log-depth
// tree. Parallelism is opt-in — the evaluation of EXPERIMENTS.md runs
// serial, matching the paper's single-client prototype — and only engages
// on scans large enough to amortize the merge.
//
// Batches: the fact columns are decoded once instead of N times, which is
// where the win comes from on segment-backed tables, and stay cache-hot
// across queries on resident ones. A batch of one opens the source with
// its own predicates, so zone maps prune whole segments and the backend
// may filter in code space and gather-decode. A larger batch opens one
// source with the UNION of the queries' column needs and no predicates,
// asks the source's PrunePlanner which blocks each query's predicates
// prune — a block is decoded if ANY live query needs it, and each query
// skips the blocks its own predicates prune — and evaluates each
// predicated query's acceptance vectors ONCE per decoded block into a
// selection bitmap (predSel) that rides into the kernel through the same
// cols.Sel path late materialization feeds; an empty bitmap skips the
// query for the whole block. Per-query results are bit-identical
// whatever the batch size.
//
// Detach: each query carries a context, polled before every block claim
// and at morsel granularity. A cancelled query leaves the scan with its
// context error; the pass continues for the remaining queries and stops
// claiming work once every query has left. The first block decode error
// stops further claims too, and every query still attached reports it.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// parallelThreshold is the default minimum row count per worker.
const parallelThreshold = 65536

// SetParallelism sets the number of workers used by fact scans. Values
// below 1 select runtime.NumCPU(); 1 (the default) is serial.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	e.workers = n
}

// SetParallelMinRows sets the minimum number of fact rows each worker
// must receive before a scan is partitioned (values below 1 restore the
// 64 Ki default). Production keeps the default — partitioning tiny scans
// costs more than it saves — while the differential oracle lowers it to
// exercise the partial-state merge on small generated facts.
func (e *Engine) SetParallelMinRows(n int) {
	if n < 1 {
		n = parallelThreshold
	}
	e.minParRows = n
}

// parallelMinRows returns the effective per-worker row threshold.
func (e *Engine) parallelMinRows() int {
	if e.minParRows < 1 {
		return parallelThreshold
	}
	return e.minParRows
}

// scanShape picks the worker count and morsel size for a scan over rows
// rows: the configured parallelism capped so each worker averages at
// least the per-worker row floor (below two workers the scan is serial),
// and the configured morsel size clamped so a parallel scan yields at
// least one morsel per worker.
func (e *Engine) scanShape(rows int) (workers, morsel int) {
	workers = min(e.workers, rows/e.parallelMinRows())
	morsel = e.effectiveMorselSize()
	if workers < 2 {
		return 1, morsel
	}
	return workers, min(morsel, (rows+workers-1)/workers)
}

// scanQuery is one query riding a scan: the predicate and roll-up
// machinery shared by all its morsels, its key-space layout, and its
// private slice of the scan's state.
type scanQuery struct {
	ctx      context.Context // nil never detaches
	group    mdm.GroupBy
	measures []int       // source measure columns, aligned with ops
	ops      []mdm.AggOp // ops[j] aggregates column measures[j]
	needCnt  bool        // some op is a count or an average
	accepts  [][]bool    // per hierarchy: accepted member ids at the source's level
	filtered bool        // some hierarchy carries an acceptance vector
	gmaps    [][]int32   // per group position: source-level id → group-level id
	space    *mdm.KeySpace
	dense    int // slots of the key space when it fits the dense budget, else 0

	// What a fact scan opens its source with: the columns the query
	// touches and its predicates in prunable form.
	need  storage.ColSet
	preds []storage.LevelPred

	// pruned[b] reports this query's predicates prune block b of a batch's
	// union source (nil on a batch of one, whose source prunes for it).
	pruned []bool
	// share maps group positions to pooled level columns (levelShare);
	// nil when the query subscribes to none.
	share []int

	parts []*aggTable // per-worker partials, allocated on first touch
	// detached is CAS-guarded: workers race to observe the cancellation,
	// and the winner writes err.
	detached atomic.Bool
	err      error     // why the query left the scan, if it did
	out      *aggTable // the merged partials, if it did not
}

// scanState is what the workers of one scan share.
type scanState struct {
	qs []*scanQuery
	ls *levelShare
	// live counts the queries still attached, so workers stop claiming
	// morsels and blocks as soon as every query has cancelled.
	live atomic.Int64
	// failed holds the first block decode error; it stops further claims.
	failed atomic.Pointer[error]
	next   atomic.Int64 // claim cursor: morsels of the one block, or blocks
}

func (st *scanState) detach(sq *scanQuery, err error) {
	if sq.detached.CompareAndSwap(false, true) {
		sq.err = err
		st.live.Add(-1)
		mSharedDetached.Inc()
	}
}

// sweep detaches the queries whose context died, so cancellation is
// noticed before paying for the next block decode, not just at morsel
// granularity after it.
func (st *scanState) sweep() {
	for _, sq := range st.qs {
		if !sq.detached.Load() {
			if err := ctxErr(sq.ctx); err != nil {
				st.detach(sq, err)
			}
		}
	}
}

// skipBlock reports whether no attached query needs block b decoded.
func (st *scanState) skipBlock(b int) bool {
	for _, sq := range st.qs {
		if !sq.detached.Load() && (sq.pruned == nil || !sq.pruned[b]) {
			return false
		}
	}
	return true
}

// aggregate folds rows [lo, hi) of block b into worker w's partial of
// every attached query.
func (st *scanState) aggregate(w int, sc *morselScratch, qsel *querySel, b int, cols storage.BlockCols, lo, hi int) {
	var lv [][]int32
	for i, sq := range st.qs {
		if sq.detached.Load() || (sq.pruned != nil && sq.pruned[b]) || qsel.empty(i) {
			continue
		}
		if err := ctxErr(sq.ctx); err != nil {
			st.detach(sq, err)
			continue
		}
		if sq.parts[w] == nil {
			sq.parts[w] = sq.newTable()
		}
		if sq.share != nil && lv == nil {
			// Lazy: pooled columns are mapped once, on the first live
			// subscriber of the morsel.
			lv = st.ls.fill(&sc.lv, cols, lo, hi)
		}
		sq.morsel(sq.parts[w], sc, qsel.cols(i, cols), lo, hi, lv)
	}
}

// scan drives the queries over the source with the given number of
// workers and leaves in each either its merged table (out) or the reason
// it left the scan (err). A single-block source — a resident table, a
// view's columns — is decoded once, zero-copy, and workers steal
// fixed-size morsels inside the block. A multi-block (segment) source
// has workers steal whole blocks instead: each claimed block is decoded
// once into the worker's own scratch and iterated morsel by morsel
// locally, so decode cost is paid once per segment and the decoded
// buffers stay worker-private.
func scan(qs []*scanQuery, src storage.ScanSource, workers, morsel int) {
	st := &scanState{qs: qs}
	st.live.Store(int64(len(qs)))
	if len(qs) > 1 {
		planPrune(qs, src)
		st.ls = newLevelShare(qs)
	}
	for _, sq := range qs {
		sq.parts = make([]*aggTable, workers)
		if sq.dense > 0 {
			mKernelDense.Inc()
		} else {
			mKernelHash.Inc()
		}
	}

	// The single block and its per-query bitmaps, decoded and built once
	// here; every worker reads them.
	nb := src.Blocks()
	var one storage.BlockCols
	var oneSel *querySel
	if nb == 1 {
		if st.sweep(); st.live.Load() > 0 {
			cols, ok, err := src.Block(0, new(storage.BlockScratch))
			switch {
			case err != nil:
				st.failed.Store(&err)
			case ok:
				one = cols
				oneSel = newQuerySel(qs)
				oneSel.build(qs, 0, one)
			}
		}
	}
	var morsels atomic.Int64
	worker := func(w int) {
		sc := getScratch()
		defer putScratch(sc)
		n := int64(0)
		defer func() { morsels.Add(n) }()
		if nb == 1 {
			for st.live.Load() > 0 {
				lo := int(st.next.Add(1)-1) * morsel
				if lo >= one.Rows {
					return
				}
				st.aggregate(w, sc, oneSel, 0, one, lo, min(lo+morsel, one.Rows))
				n++
			}
			return
		}
		qsel := newQuerySel(qs)
		for st.failed.Load() == nil {
			if st.sweep(); st.live.Load() == 0 {
				return
			}
			b := int(st.next.Add(1) - 1)
			if b >= nb {
				return
			}
			if st.skipBlock(b) {
				mSharedBlocksSkipped.Inc()
				continue
			}
			cols, ok, err := src.Block(b, &sc.block)
			if err != nil {
				st.failed.CompareAndSwap(nil, &err)
				return
			}
			if !ok {
				continue
			}
			qsel.build(qs, b, cols)
			for lo := 0; lo < cols.Rows; lo += morsel {
				st.aggregate(w, sc, qsel, b, cols, lo, min(lo+morsel, cols.Rows))
				n++
			}
		}
	}
	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	mMorsels.Add(morsels.Load())

	for _, sq := range qs {
		switch {
		case sq.detached.Load():
		case st.failed.Load() != nil:
			sq.err = *st.failed.Load()
		default:
			sq.out = sq.mergeTree(sq.parts)
		}
		sq.parts = nil
	}
}

// planPrune asks a batch's union source which blocks each query's own
// predicates prune. The prepared plan is preferred: the predicate set is
// sorted and bounded once, then probed per block, instead of re-walking
// the raw member lists for every block.
func planPrune(qs []*scanQuery, src storage.ScanSource) {
	planner, _ := src.(storage.PrunePlanner)
	prober, _ := src.(storage.PruneProber)
	for _, sq := range qs {
		var pruned func(b int) bool
		switch {
		case len(sq.preds) == 0:
			continue
		case planner != nil:
			pruned = planner.PrunePlan(sq.preds).Pruned
		case prober != nil:
			pruned = func(b int) bool { return prober.PrunedFor(b, sq.preds) }
		default:
			continue
		}
		sq.pruned = make([]bool, src.Blocks())
		for b := range sq.pruned {
			sq.pruned[b] = pruned(b)
		}
	}
}

// querySel holds the per-query per-block selection bitmaps of a batch
// (one instance per worker on the multi-block path; one shared read-only
// instance on the single-block path). Predicated queries get their
// acceptance vectors evaluated once per decoded block (predSel) and the
// bitmap rides into the kernel as BlockCols.Sel; cnt[i] == -1 marks
// query i unpredicated (block passes through unfiltered). A nil
// *querySel — a batch of one, whose source or kernel filters for it, or
// a batch with no predicated query — makes every method a cheap no-op.
type querySel struct {
	sel [][]uint64
	cnt []int
}

func newQuerySel(qs []*scanQuery) *querySel {
	if len(qs) == 1 {
		return nil
	}
	for _, sq := range qs {
		if sq.filtered {
			return &querySel{sel: make([][]uint64, len(qs)), cnt: make([]int, len(qs))}
		}
	}
	return nil
}

// build evaluates every attached predicated query's acceptance vectors
// over the decoded block b.
func (q *querySel) build(qs []*scanQuery, b int, cols storage.BlockCols) {
	if q == nil {
		return
	}
	for i, sq := range qs {
		q.cnt[i] = -1
		if sq.detached.Load() || (sq.pruned != nil && sq.pruned[b]) || !sq.filtered {
			continue
		}
		q.sel[i], q.cnt[i] = sq.predSel(cols, q.sel[i])
		if q.cnt[i] == 0 {
			mSharedQueryBlocksSkipped.Inc()
		}
	}
}

// empty reports whether query i's bitmap proved no row of the current
// block matches, so the query skips the block outright.
func (q *querySel) empty(i int) bool { return q != nil && q.cnt[i] == 0 }

// cols returns the block columns query i should aggregate: the decoded
// block with the query's bitmap attached when one was built.
func (q *querySel) cols(i int, cols storage.BlockCols) storage.BlockCols {
	if q == nil || q.cnt[i] < 0 {
		return cols
	}
	cols.Sel, cols.SelCount = q.sel[i], q.cnt[i]
	return cols
}

// levelShare pools the leaf→level rollup mapping across the queries of a
// batch: every (hierarchy, level) referenced by two or more unpredicated
// queries gets its mapped code column materialized once per morsel, and
// subscribing queries compose their composite keys from the pooled column
// instead of each re-walking its own rollup map row by row. Predicated
// queries are excluded: their selection vectors don't align with the
// morsel-dense pooled columns.
type levelShare struct {
	refs []mdm.LevelRef
	gms  [][]int32
}

// newLevelShare finds the group-by levels worth pooling and stamps each
// subscribing query's share vector (sq.share[gi] is the pooled column
// index for group position gi, or -1). Returns nil when no level is
// referenced by two eligible queries.
func newLevelShare(qs []*scanQuery) *levelShare {
	counts := make(map[mdm.LevelRef]int)
	for _, sq := range qs {
		if sq.filtered {
			continue
		}
		for _, ref := range sq.group {
			counts[ref]++
		}
	}
	ls := &levelShare{}
	idx := make(map[mdm.LevelRef]int)
	for _, sq := range qs {
		if sq.filtered {
			continue
		}
		share := make([]int, len(sq.group))
		any := false
		for gi, ref := range sq.group {
			share[gi] = -1
			if counts[ref] < 2 {
				continue
			}
			si, ok := idx[ref]
			if !ok {
				si = len(ls.refs)
				idx[ref] = si
				ls.refs = append(ls.refs, ref)
				// Same (fact, hier, level) → identical rollup map contents,
				// so any subscriber's map serves the pool.
				ls.gms = append(ls.gms, sq.gmaps[gi])
			}
			share[gi] = si
			any = true
		}
		if any {
			sq.share = share
		}
	}
	if len(ls.refs) == 0 {
		return nil
	}
	return ls
}

// fill materializes the pooled level columns for morsel rows [lo, hi)
// into the worker-private buffer.
func (ls *levelShare) fill(buf *[][]int32, cols storage.BlockCols, lo, hi int) [][]int32 {
	n := hi - lo
	if len(*buf) < len(ls.refs) {
		*buf = make([][]int32, len(ls.refs))
	}
	lv := *buf
	for si, ref := range ls.refs {
		col := lv[si]
		if cap(col) < n {
			col = make([]int32, n)
		}
		col = col[:n]
		gm := ls.gms[si]
		keys := cols.Keys[ref.Hier]
		for i := range col {
			col[i] = gm[keys[lo+i]]
		}
		lv[si] = col
	}
	return lv
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ScanReq is one query of a SharedScan batch. Ops/Names default to the
// schema's measure operators and names when nil (they are what
// scanAggregate would derive); a nil Ctx never detaches.
type ScanReq struct {
	Ctx   context.Context
	Query Query
	Ops   []mdm.AggOp
	Names []string
}

// ScanResult is one query's outcome: exactly the cube and error a scan of
// its own would have produced, or the request context's error if the
// request detached mid-scan.
type ScanResult struct {
	Cube *cube.Cube
	Err  error
}

// SharedScan evaluates all reqs — which must target fact — in one pass
// over the fact data, returning one result per request in order. A
// request that cannot be prepared fails alone; the rest still share the
// pass.
func (e *Engine) SharedScan(fact string, reqs []ScanReq) []ScanResult {
	out := make([]ScanResult, len(reqs))
	f, ok := e.facts[fact]
	if !ok {
		for i := range out {
			out[i].Err = fmt.Errorf("engine: unknown cube %s", fact)
		}
		return out
	}
	qs := make([]*scanQuery, 0, len(reqs))
	at := make([]int, 0, len(reqs)) // qs[k] answers reqs[at[k]]
	names := make([][]string, len(reqs))
	for i, r := range reqs {
		err := ctxErr(r.Ctx)
		if r.Query.Fact != fact {
			err = fmt.Errorf("engine: shared scan over %s got query for %s", fact, r.Query.Fact)
		}
		ops := r.Ops
		names[i] = r.Names
		if err == nil && ops == nil {
			ops, names[i], err = schemaOps(f.Schema, r.Query)
		}
		var sq *scanQuery
		if err == nil {
			sq, err = e.prepare(r.Ctx, f, r.Query, ops)
		}
		if err != nil {
			out[i].Err = err
			continue
		}
		qs = append(qs, sq)
		at = append(at, i)
	}
	if len(qs) == 0 {
		return out
	}
	if len(qs) > 1 {
		mSharedScans.Inc()
		mSharedQueries.Add(int64(len(qs)))
	}
	e.scanFact(f, qs)
	for k, sq := range qs {
		i := at[k]
		if out[i].Err = sq.err; sq.err == nil {
			out[i].Cube, out[i].Err = sq.finalize(f.Schema, names[i], sq.out)
		}
	}
	return out
}

// scanFact answers the queries — all over f — in one pass: it opens the
// source, sizes the scan and runs it. One query opens the source with its
// own predicates and predicate-only columns; a batch opens the union of
// the queries' column needs, predicate-free.
func (e *Engine) scanFact(f *storage.FactTable, qs []*scanQuery) {
	need, preds := qs[0].need, qs[0].preds
	if len(qs) > 1 {
		need, preds = storage.ColSet{}, nil
		for _, sq := range qs {
			need.Keys = orInto(need.Keys, sq.need.Keys)
			need.Meas = orInto(need.Meas, sq.need.Meas)
		}
	}
	src := f.ScanSource(need, preds)
	defer src.Close()
	rows := src.Rows()
	mRowsScanned.Add(int64(rows))
	workers, morsel := e.scanShape(rows)
	if workers > 1 {
		mScansParallel.Add(int64(len(qs)))
	} else {
		mScansSerial.Add(int64(len(qs)))
	}
	scan(qs, src, workers, morsel)
}

// orInto ORs src into dst element-wise, growing dst as needed.
func orInto(dst, src []bool) []bool {
	if len(src) > len(dst) {
		dst = append(dst, make([]bool, len(src)-len(dst))...)
	}
	for i, v := range src {
		if v {
			dst[i] = true
		}
	}
	return dst
}
