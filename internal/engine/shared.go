// Shared-scan multi-query execution: N concurrently-arriving queries
// over the same fact table are answered by ONE pass over the data. The
// PR-4 kernels already isolate per-group-by state (dense accumulator
// arrays or a hash table per query), so each morsel updates every
// attached query's accumulators before the next morsel is read — the
// fact columns are decoded once instead of N times, which is where the
// win comes from on segment-backed tables, and stay cache-hot across
// queries on resident ones.
//
// Pruning: a solo scan pushes its predicates into the ScanSource so zone
// maps can skip whole segments. A shared scan opens one source with the
// UNION of the queries' column needs and no predicates, then asks the
// source's PrunePlanner (falling back to per-block PruneProber calls)
// which blocks each query's predicates prune: a block is decoded if ANY
// live query needs it, and each query skips aggregating blocks its own
// predicates prune — so per-query results are bit-identical to solo
// scans, pruning included. Skipping a pruned block cannot perturb a
// query's first-seen cell order because a prunable block holds no
// accepted rows.
//
// Row filtering: the union source carries no predicates, so blocks
// arrive unfiltered (cols.Sel nil). Each predicated query evaluates its
// acceptance vectors ONCE per decoded block into a selection bitmap
// (predSel) and the morsel kernels consume the bitmap through the same
// cols.Sel path late materialization feeds on solo scans; an empty
// bitmap skips the query for the whole block.
//
// Detach: each request carries a context, polled at morsel granularity.
// A cancelled request leaves the scan with its context error; the pass
// continues for the remaining queries and aborts only when every request
// has detached.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// ScanReq is one query attached to a shared scan. Ops/Names default to
// the schema's measure operators and names when nil (they are what
// scanAggregate would derive); a nil Ctx never detaches.
type ScanReq struct {
	Ctx   context.Context
	Query Query
	Ops   []mdm.AggOp
	Names []string
}

// ScanResult is one query's outcome: exactly the cube and error the solo
// scan path would have produced, or the request context's error if the
// request detached mid-scan.
type ScanResult struct {
	Cube *cube.Cube
	Err  error
}

// sharedQuery is one request's private slice of a shared scan.
type sharedQuery struct {
	idx   int // position in the reqs/results slices
	ctx   context.Context
	prep  *preparedScan
	names []string
	// predsFrom are this query's prunable predicate forms, fed to the
	// source's PruneProber instead of the source itself.
	predsFrom []storage.LevelPred
	// pruned[b] reports this query's predicates prune block b (nil when
	// the source cannot prune or the query has no predicates).
	pruned []bool
	layout *denseLayout // nil → hash fallback
	// share maps group positions to pooled level columns (levelShare);
	// nil when the query subscribes to none.
	share []int

	// serial-scan state
	dense *denseState
	hash  scanState
	coord mdm.Coordinate

	err error // serial detach / failure, set by the scan goroutine

	// parallel-scan state: per-worker partials and a CAS-guarded detach
	// flag (workers race to observe the cancellation).
	denseParts []*denseState
	hashParts  []scanState
	detached   atomic.Bool
	detachErr  error // written once by the CAS winner, read after Wait
}

func (sq *sharedQuery) ctxErr() error {
	if sq.ctx == nil {
		return nil
	}
	return sq.ctx.Err()
}

// failed reports whether the query already left the scan (serial path).
func (sq *sharedQuery) failed() bool { return sq.err != nil }

// SharedScan evaluates all reqs — which must target fact — in one pass
// over the fact data, returning one result per request in order. A
// single-request batch takes the solo scan path unchanged (including
// source-side pruning), so batching never penalizes an unshared query
// beyond the batching window itself.
func (e *Engine) SharedScan(fact string, reqs []ScanReq) []ScanResult {
	out := make([]ScanResult, len(reqs))
	f, ok := e.facts[fact]
	if !ok {
		err := fmt.Errorf("engine: unknown cube %s", fact)
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	s := f.Schema
	var qs []*sharedQuery
	var unionKeys, unionMeas []bool
	for i, r := range reqs {
		if r.Query.Fact != fact {
			out[i].Err = fmt.Errorf("engine: shared scan over %s got query for %s", fact, r.Query.Fact)
			continue
		}
		if err := ctxErr(r.Ctx); err != nil {
			out[i].Err = err
			continue
		}
		ops, names := r.Ops, r.Names
		if ops == nil {
			ops = make([]mdm.AggOp, len(r.Query.Measures))
			names = make([]string, len(r.Query.Measures))
			for j, mi := range r.Query.Measures {
				if mi < 0 || mi >= len(s.Measures) {
					ops = nil
					break
				}
				ops[j] = s.Measures[mi].Op
				names[j] = s.Measures[mi].Name
			}
			if ops == nil {
				out[i].Err = fmt.Errorf("engine: measure index out of range for %s", fact)
				continue
			}
		}
		prep, need, preds, err := e.buildScanPrep(f, r.Query, ops)
		if err != nil {
			out[i].Err = err
			continue
		}
		sq := &sharedQuery{idx: i, ctx: r.Ctx, prep: prep, names: names}
		sq.predsFrom = preds
		qs = append(qs, sq)
		unionKeys = orInto(unionKeys, need.Keys)
		unionMeas = orInto(unionMeas, need.Meas)
	}
	switch len(qs) {
	case 0:
		return out
	case 1:
		// Solo fast path: rebuild through scanAggregateOps so the source
		// sees the query's own predicates and prunes exactly as an
		// unbatched scan would.
		sq := qs[0]
		c, err := e.scanAggregateOps(sq.prep.q, sq.prep.ops, sq.names)
		out[sq.idx] = ScanResult{Cube: c, Err: err}
		return out
	}

	mSharedScans.Inc()
	mSharedQueries.Add(int64(len(qs)))
	src := f.ScanSource(storage.ColSet{Keys: unionKeys, Meas: unionMeas}, nil)
	defer src.Close()
	rows := src.Rows()
	mRowsScanned.Add(int64(rows))
	prober, _ := src.(storage.PruneProber)
	planner, _ := src.(storage.PrunePlanner)
	nb := src.Blocks()
	budget := e.denseKeyBudget()
	for _, sq := range qs {
		sq.prep.src = src
		sq.prep.rows = rows
		sq.layout = sq.prep.denseLayout(budget)
		if sq.layout != nil {
			mKernelDense.Inc()
		} else {
			mKernelHash.Inc()
		}
		if len(sq.predsFrom) > 0 {
			// Prefer the prepared plan: the predicate set is sorted and
			// bounded once, then probed per block, instead of re-walking
			// the raw member lists for every block.
			switch {
			case planner != nil:
				plan := planner.PrunePlan(sq.predsFrom)
				sq.pruned = make([]bool, nb)
				for b := range sq.pruned {
					sq.pruned[b] = plan.Pruned(b)
				}
			case prober != nil:
				sq.pruned = make([]bool, nb)
				for b := range sq.pruned {
					sq.pruned[b] = prober.PrunedFor(b, sq.predsFrom)
				}
			}
		}
	}

	workers := scanWorkers(e.workers, rows, e.parallelMinRows())
	morsel := e.effectiveMorselSize()
	if workers >= 2 {
		mScansParallel.Inc()
		e.sharedParallel(src, qs, workers, scanMorsel(morsel, rows, workers))
	} else {
		mScansSerial.Inc()
		e.sharedSerial(src, qs, morsel)
	}

	for _, sq := range qs {
		if sq.err != nil {
			out[sq.idx].Err = sq.err
			continue
		}
		var c *cube.Cube
		var err error
		if sq.layout != nil {
			c, err = sq.prep.finalizeDense(s, sq.names, sq.layout, sq.dense)
		} else {
			c, err = sq.prep.finalize(s, sq.names, sq.hash)
		}
		out[sq.idx] = ScanResult{Cube: c, Err: err}
	}
	return out
}

// sharedSerial drives all queries over the source on the calling
// goroutine: blocks in order, morsels in order, every live query updated
// per morsel. Block decode is skipped when every live query prunes the
// block; per-query pruning skips aggregation only.
func (e *Engine) sharedSerial(src storage.ScanSource, qs []*sharedQuery, morsel int) {
	for _, sq := range qs {
		if sq.layout != nil {
			sq.dense = sq.prep.newDenseState(sq.layout, true)
		} else {
			sq.hash = scanState{cells: make(map[string]*aggState)}
			sq.coord = make(mdm.Coordinate, len(sq.prep.q.Group))
		}
	}
	ls := newLevelShare(qs)
	sc := getScratch()
	defer putScratch(sc)
	qsel := newQuerySel(qs)
	live := len(qs)
	morsels := int64(0)
	for b := 0; b < src.Blocks() && live > 0; b++ {
		needBlock := false
		for _, sq := range qs {
			if sq.failed() {
				continue
			}
			if err := sq.ctxErr(); err != nil {
				sq.err = err
				live--
				mSharedDetached.Inc()
				continue
			}
			if sq.pruned == nil || !sq.pruned[b] {
				needBlock = true
			}
		}
		if !needBlock {
			if live > 0 {
				mSharedBlocksSkipped.Inc()
			}
			continue
		}
		cols, ok, err := src.Block(b, &sc.block)
		if err != nil {
			for _, sq := range qs {
				if !sq.failed() {
					sq.err = err
				}
			}
			return
		}
		if !ok {
			continue
		}
		qsel.build(qs, b, cols, func(sq *sharedQuery) bool { return sq.failed() })
		for lo := 0; lo < cols.Rows; lo += morsel {
			hi := min(lo+morsel, cols.Rows)
			var lv [][]int32
			for i, sq := range qs {
				if sq.failed() || (sq.pruned != nil && sq.pruned[b]) || qsel.empty(i) {
					continue
				}
				if err := sq.ctxErr(); err != nil {
					sq.err = err
					live--
					mSharedDetached.Inc()
					continue
				}
				qcols := qsel.cols(i, cols)
				switch {
				case sq.layout == nil:
					sq.prep.runInto(&sq.hash, sq.coord, qcols, lo, hi)
				case sq.share != nil:
					// Lazy: pooled columns are mapped once, on the first live
					// subscriber of the morsel.
					if lv == nil {
						lv = ls.fill(&sc.lv, cols, lo, hi)
					}
					sq.prep.denseMorselShared(sq.dense, sq.layout, sc, cols, lo, hi, lv, sq.share)
				default:
					sq.prep.denseMorsel(sq.dense, sq.layout, sc, qcols, lo, hi)
				}
			}
			morsels++
			if live == 0 {
				break
			}
		}
	}
	mMorsels.Add(morsels)
}

// sharedParallel drives all queries over the source with worker
// goroutines. Single-block (resident) sources are decoded once and
// workers steal fixed-size morsels inside the block; multi-block
// (segment) sources have workers steal whole blocks, decoding each once
// into worker-private scratch. Every worker holds a private partial
// state per query, merged per query after the scan; parallel results
// emit in coordinate order, exactly like solo parallel scans.
func (e *Engine) sharedParallel(src storage.ScanSource, qs []*sharedQuery, workers, morsel int) {
	for _, sq := range qs {
		if sq.layout != nil {
			sq.denseParts = make([]*denseState, workers)
		} else {
			sq.hashParts = make([]scanState, workers)
			for w := range sq.hashParts {
				sq.hashParts[w] = scanState{cells: make(map[string]*aggState)}
			}
		}
	}
	// liveCnt tracks queries not yet detached so workers can stop
	// claiming morsels (resident path) and blocks (segment path) as
	// soon as every query has cancelled — without it a scan whose
	// requests are all dead would keep decoding to the end.
	var liveCnt atomic.Int64
	liveCnt.Store(int64(len(qs)))
	detach := func(sq *sharedQuery, err error) {
		if sq.detached.CompareAndSwap(false, true) {
			sq.detachErr = err
			liveCnt.Add(-1)
			mSharedDetached.Inc()
		}
	}
	// sweepCancelled detaches queries whose context died, so the
	// segment path notices cancellation before paying for the next
	// block decode, not just at morsel granularity after it.
	sweepCancelled := func() {
		for _, sq := range qs {
			if !sq.detached.Load() {
				if err := sq.ctxErr(); err != nil {
					detach(sq, err)
				}
			}
		}
	}
	ls := newLevelShare(qs)
	detachedQ := func(sq *sharedQuery) bool { return sq.detached.Load() }
	// work aggregates one morsel of block b for every live query.
	work := func(w int, sc *morselScratch, qsel *querySel, b int, cols storage.BlockCols, lo, hi int) {
		var lv [][]int32
		for i, sq := range qs {
			if sq.detached.Load() || (sq.pruned != nil && sq.pruned[b]) || qsel.empty(i) {
				continue
			}
			if err := sq.ctxErr(); err != nil {
				detach(sq, err)
				continue
			}
			qcols := qsel.cols(i, cols)
			if sq.layout != nil {
				if sq.denseParts[w] == nil {
					sq.denseParts[w] = sq.prep.newDenseState(sq.layout, false)
				}
				if sq.share != nil {
					if lv == nil {
						lv = ls.fill(&sc.lv, cols, lo, hi)
					}
					sq.prep.denseMorselShared(sq.denseParts[w], sq.layout, sc, cols, lo, hi, lv, sq.share)
					continue
				}
				sq.prep.denseMorsel(sq.denseParts[w], sq.layout, sc, qcols, lo, hi)
			} else {
				if sc.coord == nil || len(sc.coord) < len(sq.prep.q.Group) {
					sc.coord = make(mdm.Coordinate, maxGroupLen(qs))
				}
				sq.prep.runInto(&sq.hashParts[w], sc.coord[:len(sq.prep.q.Group)], qcols, lo, hi)
			}
		}
	}
	// skipBlock reports whether no live query needs block b decoded.
	skipBlock := func(b int) bool {
		for _, sq := range qs {
			if sq.detached.Load() {
				continue
			}
			if sq.pruned == nil || !sq.pruned[b] {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	var morsels atomic.Int64
	var scanErr atomic.Pointer[error]
	fail := func(err error) { e := err; scanErr.CompareAndSwap(nil, &e) }
	if src.Blocks() == 1 {
		var bsc storage.BlockScratch
		cols, ok, err := src.Block(0, &bsc)
		if err != nil {
			fail(err)
		} else if ok {
			// One block, one bitmap build: every worker reads the same
			// per-query bitmaps, computed here before the steal loop.
			qsel := newQuerySel(qs)
			qsel.build(qs, 0, cols, detachedQ)
			cur := &morselCursor{morsel: morsel, rows: cols.Rows}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sc := getScratch()
					defer putScratch(sc)
					n := int64(0)
					for liveCnt.Load() > 0 {
						lo, hi, ok := cur.claim()
						if !ok {
							break
						}
						work(w, sc, qsel, 0, cols, lo, hi)
						n++
					}
					morsels.Add(n)
				}(w)
			}
			wg.Wait()
		}
	} else {
		var next atomic.Int64
		nb := src.Blocks()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := getScratch()
				defer putScratch(sc)
				qsel := newQuerySel(qs)
				n := int64(0)
				for scanErr.Load() == nil {
					sweepCancelled()
					if liveCnt.Load() == 0 {
						break
					}
					b := int(next.Add(1)) - 1
					if b >= nb {
						break
					}
					if skipBlock(b) {
						mSharedBlocksSkipped.Inc()
						continue
					}
					cols, ok, err := src.Block(b, &sc.block)
					if err != nil {
						fail(err)
						break
					}
					if !ok {
						continue
					}
					qsel.build(qs, b, cols, detachedQ)
					for lo := 0; lo < cols.Rows; lo += morsel {
						work(w, sc, qsel, b, cols, lo, min(lo+morsel, cols.Rows))
						n++
					}
				}
				morsels.Add(n)
			}(w)
		}
		wg.Wait()
	}
	mMorsels.Add(morsels.Load())

	var failErr error
	if p := scanErr.Load(); p != nil {
		failErr = *p
	}
	for _, sq := range qs {
		switch {
		case sq.detached.Load():
			sq.err = sq.detachErr
			continue
		case failErr != nil:
			sq.err = failErr
			continue
		}
		if sq.layout != nil {
			parts := sq.denseParts[:0]
			for _, st := range sq.denseParts {
				if st != nil {
					parts = append(parts, st)
				}
			}
			if len(parts) == 0 {
				sq.dense = sq.prep.newDenseState(sq.layout, false)
				continue
			}
			for i := 1; i < len(parts); i++ {
				sq.prep.mergeDense(parts[0], parts[i])
			}
			sq.dense = parts[0]
			continue
		}
		st := sq.prep.mergeTree(sq.hashParts)
		sort.Slice(st.order, func(i, j int) bool {
			a, b := st.order[i].coord, st.order[j].coord
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		sq.hash = st
	}
}

// querySel holds the per-query per-block selection bitmaps of a shared
// scan (one instance per worker on the multi-block path; one shared
// read-only instance on the single-block path). Predicated queries get
// their acceptance vectors evaluated once per decoded block (predSel)
// and the bitmap rides into the morsel kernels as BlockCols.Sel;
// cnt[i] == -1 marks query i unpredicated (block passes through
// unfiltered). A nil *querySel (no predicated query in the batch) makes
// every method a cheap no-op.
type querySel struct {
	sel [][]uint64
	cnt []int
}

func newQuerySel(qs []*sharedQuery) *querySel {
	for _, sq := range qs {
		if sq.prep.hasPreds() {
			return &querySel{sel: make([][]uint64, len(qs)), cnt: make([]int, len(qs))}
		}
	}
	return nil
}

// build evaluates every live predicated query's acceptance vectors over
// the decoded block b. dead reports queries already out of the scan.
func (q *querySel) build(qs []*sharedQuery, b int, cols storage.BlockCols, dead func(*sharedQuery) bool) {
	if q == nil {
		return
	}
	for i, sq := range qs {
		q.cnt[i] = -1
		if dead(sq) || (sq.pruned != nil && sq.pruned[b]) || !sq.prep.hasPreds() {
			continue
		}
		q.sel[i], q.cnt[i] = sq.prep.predSel(cols, q.sel[i])
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
// shared scan: every (hierarchy, level) referenced by two or more
// unpredicated dense queries gets its mapped code column materialized
// once per morsel, and subscribing queries compose their dense keys from
// the pooled column instead of each re-walking its own rollup map row by
// row. Predicated queries are excluded (their selection vectors don't
// align with the morsel-dense pooled columns), as are hash-fallback
// queries.
type levelShare struct {
	refs []mdm.LevelRef
	gms  [][]int32
}

// newLevelShare finds the group-by levels worth pooling and stamps each
// subscribing query's share vector (sq.share[gi] is the pooled column
// index for group position gi, or -1). Returns nil when no level is
// referenced by two eligible queries.
func newLevelShare(qs []*sharedQuery) *levelShare {
	eligible := func(sq *sharedQuery) bool {
		return sq.layout != nil && !sq.prep.hasPreds()
	}
	counts := make(map[mdm.LevelRef]int)
	for _, sq := range qs {
		if !eligible(sq) {
			continue
		}
		for _, ref := range sq.prep.q.Group {
			counts[ref]++
		}
	}
	ls := &levelShare{}
	idx := make(map[mdm.LevelRef]int)
	for _, sq := range qs {
		if !eligible(sq) {
			continue
		}
		share := make([]int, len(sq.prep.q.Group))
		any := false
		for gi, ref := range sq.prep.q.Group {
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
				ls.gms = append(ls.gms, sq.prep.gmaps[gi])
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

func maxGroupLen(qs []*sharedQuery) int {
	n := 0
	for _, sq := range qs {
		if g := len(sq.prep.q.Group); g > n {
			n = g
		}
	}
	return n
}
