// The scan pipeline: every aggregate the engine computes from rows — a
// plain fact scan, a view build, a roll-up over a materialized view's
// columns — is one call of scan, and every scan answers one query. A
// serial scan is one worker running the worker body on the calling
// goroutine; and the kernel the query accumulates through (kernel.go) is
// the same whether its slots are dense keys or come out of a slot table.
//
// Morsels: the data is split into fixed-size morsels (SetMorselSize,
// default 64 Ki rows) claimed off a shared atomic cursor, so fast workers
// steal the morsels slow ones never reach. Each worker aggregates into a
// private partial and the partials are merged in a log-depth tree.
// Parallelism is opt-in — the evaluation of EXPERIMENTS.md runs serial,
// matching the paper's single-client prototype — and only engages on
// scans large enough to amortize the merge.
//
// A fact scan opens its source with the query's own predicates, so zone
// maps prune whole segments and the backend may filter in code space and
// gather-decode.
//
// Cancellation and errors: the query's context is polled before every
// block claim and at morsel granularity; a cancelled query ends the scan
// with its context error. The first block decode error ends it too. Either
// way workers stop claiming work and the scan reports that first error.
// So does a panic on any worker — in a kernel, or in the backend's block
// decode: the worker recovers it into a *PanicError that fails the scan,
// so one query's bug never takes the process down with it.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// SetParallelism sets the number of workers used by fact scans. Values
// below 1 select runtime.NumCPU(); 1 (the default) is serial.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	e.workers = n
}

// Parallelism is the number of workers a statement is given: what its
// fact scans may use, and what the server may format its result with.
func (e *Engine) Parallelism() int { return max(1, e.workers) }

// scanShape picks the worker count and morsel size for a scan over rows
// rows: the configured parallelism capped so each worker averages at
// least one morsel — partitioning a smaller scan costs more than it
// saves, and below two workers the scan is serial — and the configured
// morsel size clamped so a parallel scan yields at least one morsel per
// worker.
func (e *Engine) scanShape(rows int) (workers, morsel int) {
	morsel = e.effectiveMorselSize()
	workers = min(e.workers, rows/morsel)
	if workers < 2 {
		return 1, morsel
	}
	return workers, min(morsel, (rows+workers-1)/workers)
}

// scanQuery is the query a scan answers: the predicate and roll-up
// machinery shared by all its morsels and its key-space layout.
type scanQuery struct {
	ctx      context.Context // nil never cancels
	group    mdm.GroupBy
	measures []int       // source measure columns, aligned with ops
	ops      []mdm.AggOp // ops[j] aggregates column measures[j]
	needCnt  bool        // some op is a count or an average
	accepts  [][]bool    // per hierarchy: accepted member ids at the source's level
	filtered bool        // some hierarchy carries an acceptance vector
	gmaps    [][]int32   // per group position: source-level id → group-level id
	cards    []int       // per group position: the level's cardinality at prepare time
	space    *mdm.KeySpace
	dense    int // slots of the key space when it fits the dense budget, else 0
	// into, when set, is a table of this key space that already holds
	// rows: the scan accumulates into it in place and returns it. A scan
	// that fails leaves it partly updated, fit only to be discarded.
	into *aggTable

	// What a fact scan opens its source with: the columns the query
	// touches and its predicates in prunable form.
	need  storage.ColSet
	preds []storage.LevelPred
}

// scanState is what the workers of one scan share.
type scanState struct {
	next atomic.Int64 // claim cursor: morsels of the one block, or blocks
	// stop ends further claims. It is CAS-guarded: workers race to report
	// a cancellation or a decode error, and the winner writes err.
	stop atomic.Bool
	err  error
}

// fail records err as the scan's outcome unless an earlier failure got
// there first, and reports whether it did.
func (st *scanState) fail(err error) bool {
	if !st.stop.CompareAndSwap(false, true) {
		return false
	}
	st.err = err
	return true
}

// PanicError is the outcome of a query whose scan worker, or shard
// fan-out goroutine, panicked: the panic's value and the stack of the
// goroutine it was raised on.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: scan worker panicked: %v", e.Value)
}

// Recovered turns the value of a recover() into the error its query
// fails with, counted in assess_query_panics_total. Call it from the
// deferred function that recovered, so the stack is the panicking
// goroutine's.
func Recovered(r any) *PanicError {
	mPanics.Inc()
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// contain recovers a panic on the worker it is deferred by and fails the
// scan with it.
func (st *scanState) contain() {
	if r := recover(); r != nil {
		st.fail(Recovered(r))
	}
}

// alive reports whether the scan should go on, polling the query's
// context on the way.
func (st *scanState) alive(ctx context.Context) bool {
	if st.stop.Load() {
		return false
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			if st.fail(err) {
				mCancelled.Inc()
			}
			return false
		}
	}
	return true
}

// scan drives the query over the source with the given number of workers
// and returns its merged table, the rows it swept and the rows it read,
// or the reason the scan ended early. A block's rows all count as swept —
// for a Filtered block, the rows its backend selected; for a listed one,
// its Listed rows — while a block read counts all its rows (BlockRows),
// whatever it selected. A block pruned by its zone map, or skipped
// because no row matches, sweeps and reads none.
// A single-block source — a resident table, a view's columns — is
// decoded once, zero-copy, and workers steal fixed-size morsels inside
// the block.
// A multi-block (segment) source has workers steal whole blocks instead:
// each claimed block is decoded once into the worker's own scratch and
// iterated morsel by morsel locally, so decode cost is paid once per
// segment and the decoded buffers stay worker-private.
// Either way a listed block (storage.RowsAt) is read in place: morsels
// cut its Listed rows, not its columns.
func scan(sq *scanQuery, src storage.ScanSource, workers, morsel int) (t *aggTable, swept, read int, err error) {
	if sq.dense > 0 {
		mKernelDense.Inc()
	} else {
		mKernelHash.Inc()
	}
	st := new(scanState)
	parts := make([]*aggTable, workers)
	parts[0] = sq.into

	// The single block is decoded once here; every worker reads it.
	nb := src.Blocks()
	var one storage.BlockCols
	var morsels, sweptRows, readRows atomic.Int64
	if nb == 1 && st.alive(sq.ctx) {
		func() {
			defer st.contain()
			cols, ok, err := src.Block(0, new(storage.BlockScratch))
			switch {
			case err != nil:
				st.fail(err)
			case ok:
				one = cols
				sweptRows.Store(int64(served(cols)))
				readRows.Store(int64(src.BlockRows(0)))
			}
		}()
	}
	worker := func(w int) {
		defer st.contain()
		sc := getScratch()
		defer putScratch(sc)
		n := int64(0)
		defer func() { morsels.Add(n) }()
		// aggregate folds rows [lo, hi) of a block into the worker's
		// partial, allocated on first touch.
		aggregate := func(cols storage.BlockCols, lo, hi int) {
			n++
			if !st.alive(sq.ctx) {
				return
			}
			if parts[w] == nil {
				parts[w] = sq.newTable()
			}
			sq.morsel(parts[w], sc, cols, lo, hi)
		}
		if nb == 1 {
			rows := served(one)
			for !st.stop.Load() {
				lo := int(st.next.Add(1)-1) * morsel
				if lo >= rows {
					return
				}
				aggregate(one, lo, min(lo+morsel, rows))
			}
			return
		}
		for st.alive(sq.ctx) {
			b := int(st.next.Add(1) - 1)
			if b >= nb {
				return
			}
			cols, ok, err := src.Block(b, &sc.block)
			if err != nil {
				st.fail(err)
				return
			}
			if !ok {
				continue
			}
			rows := served(cols)
			sweptRows.Add(int64(rows))
			readRows.Add(int64(src.BlockRows(b)))
			for lo := 0; lo < rows; lo += morsel {
				aggregate(cols, lo, min(lo+morsel, rows))
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
	if st.err != nil {
		return nil, 0, 0, st.err
	}
	return sq.mergeTree(parts), int(sweptRows.Load()), int(readRows.Load()), nil
}

// served is the rows a block serves a scan: its Listed rows when it has
// them, else every row its columns hold.
func served(cols storage.BlockCols) int {
	if cols.Listed != nil {
		return len(cols.Listed)
	}
	return cols.Rows
}

// scanFact answers the query over f: it opens the source with the
// query's own predicates and predicate-only columns, sizes the scan and
// runs it, reporting the rows of the blocks it read.
func (e *Engine) scanFact(f *storage.FactTable, sq *scanQuery) (*aggTable, int, error) {
	src := f.ScanSource(sq.need, sq.preds)
	defer src.Close()
	return e.scanRows(src, sq)
}

// scanRows sizes and runs the scan of fact rows the source covers,
// counts the rows it swept once it has answered, and reports the rows of
// the blocks it read.
func (e *Engine) scanRows(src storage.ScanSource, sq *scanQuery) (*aggTable, int, error) {
	workers, morsel := e.scanShape(src.Rows())
	if workers > 1 {
		mScansParallel.Inc()
	} else {
		mScansSerial.Inc()
	}
	t, swept, read, err := scan(sq, src, workers, morsel)
	if err == nil {
		mRowsScanned.Add(int64(swept))
	}
	return t, read, err
}
