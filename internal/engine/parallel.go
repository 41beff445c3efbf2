package engine

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Morsel-driven parallel fact scans. The fact table is split into
// fixed-size morsels (SetMorselSize, default 64 Ki rows) claimed off a
// shared atomic cursor by up to runtime.NumCPU() workers, so fast
// workers steal the morsels slow ones never reach — skewed predicate
// selectivity no longer stalls the scan the way the old static
// partitioning did. Each worker aggregates its morsels into private
// state (dense accumulator arrays when the key space fits the budget,
// see kernel.go, otherwise a hash table), and the partials are merged in
// a log-depth tree. Parallelism is opt-in — the evaluation of
// EXPERIMENTS.md runs serial, matching the paper's single-client
// prototype — and only engages on scans large enough to amortize the
// merge.

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

// scanWorkers caps the configured parallelism so each worker averages at
// least minRows rows; a result below 2 means the scan runs serial.
func scanWorkers(workers, rows, minRows int) int {
	if most := rows / minRows; workers > most {
		workers = most
	}
	return workers
}

// scanMorsel clamps the configured morsel size so a parallel scan yields
// at least one morsel per worker.
func scanMorsel(morsel, rows, workers int) int {
	if per := (rows + workers - 1) / workers; morsel > per {
		morsel = per
	}
	return morsel
}

// morselCursor hands out fixed-size morsels: each Add claims the next
// unscanned [lo, hi) row range until the table is exhausted.
type morselCursor struct {
	next   atomic.Int64
	morsel int
	rows   int
}

func (c *morselCursor) claim() (lo, hi int, ok bool) {
	m := int(c.next.Add(1)) - 1
	lo = m * c.morsel
	if lo >= c.rows {
		return 0, 0, false
	}
	return lo, min(lo+c.morsel, c.rows), true
}

// scanState accumulates the hash-fallback aggregation of one worker: a
// private table over the composite group-by key plus first-seen order.
type scanState struct {
	cells map[string]*aggState
	order []*aggState
}

// preparedScan is the predicate/roll-up machinery shared by all
// morsels of one scan. src iterates the fact data block by block
// (resident tables are one zero-copy block; segment-backed tables one
// block per segment plus the WAL tail, see internal/storage.ScanSource).
type preparedScan struct {
	q       Query
	src     storage.ScanSource
	rows    int
	accepts [][]bool
	gmaps   [][]int32
	cards   []int // group-level domain sizes, for the dense layout
	ops     []mdm.AggOp
}

// run is the serial hash scan: blocks in order, rows in order, so the
// first-seen cell order is identical across backends (pruned blocks
// contain no accepted rows by construction).
func (p *preparedScan) run() (scanState, error) {
	st := scanState{cells: make(map[string]*aggState)}
	coord := make(mdm.Coordinate, len(p.q.Group))
	sc := getScratch()
	defer putScratch(sc)
	for b := 0; b < p.src.Blocks(); b++ {
		cols, ok, err := p.src.Block(b, &sc.block)
		if err != nil {
			return st, err
		}
		if !ok {
			continue
		}
		p.runInto(&st, coord, cols, 0, cols.Rows)
	}
	return st, nil
}

// runInto aggregates the block-local row range [lo, hi) into st's table.
// A backend selection bitmap (cols.Sel, late materialization) replaces
// the acceptance-vector checks: the backend evaluated the same predicate
// set row-exactly, and gather-decoded measure slots outside the
// selection hold garbage, so only selected rows may be read.
func (p *preparedScan) runInto(st *scanState, coord mdm.Coordinate, cols storage.BlockCols, lo, hi int) {
	nm := len(p.q.Measures)
rows:
	for r := lo; r < hi; r++ {
		if cols.Sel != nil {
			if cols.SelCount < cols.Rows && !cols.Selected(r) {
				continue
			}
		} else {
			for h, acc := range p.accepts {
				if acc != nil && !acc[cols.Keys[h][r]] {
					continue rows
				}
			}
		}
		for gi, ref := range p.q.Group {
			coord[gi] = p.gmaps[gi][cols.Keys[ref.Hier][r]]
		}
		key := coord.Key()
		cell := st.cells[key]
		if cell == nil {
			cell = &aggState{coord: coord.Clone(), vals: make([]float64, nm), cnt: make([]int64, nm)}
			for j := range p.q.Measures {
				switch p.ops[j] {
				case mdm.AggMin:
					cell.vals[j] = math.Inf(1)
				case mdm.AggMax:
					cell.vals[j] = math.Inf(-1)
				}
			}
			st.cells[key] = cell
			st.order = append(st.order, cell)
		}
		for j, mi := range p.q.Measures {
			v := cols.Meas[mi][r]
			switch p.ops[j] {
			case mdm.AggSum, mdm.AggAvg:
				cell.vals[j] += v
			case mdm.AggMin:
				cell.vals[j] = math.Min(cell.vals[j], v)
			case mdm.AggMax:
				cell.vals[j] = math.Max(cell.vals[j], v)
			}
			cell.cnt[j]++
		}
	}
}

// merge folds src into dst.
func (p *preparedScan) merge(dst, src scanState) scanState {
	for key, cell := range src.cells {
		base := dst.cells[key]
		if base == nil {
			dst.cells[key] = cell
			dst.order = append(dst.order, cell)
			continue
		}
		for j := range p.q.Measures {
			switch p.ops[j] {
			case mdm.AggSum, mdm.AggAvg:
				base.vals[j] += cell.vals[j]
			case mdm.AggMin:
				base.vals[j] = math.Min(base.vals[j], cell.vals[j])
			case mdm.AggMax:
				base.vals[j] = math.Max(base.vals[j], cell.vals[j])
			}
			base.cnt[j] += cell.cnt[j]
		}
	}
	return dst
}

// mergeTree folds the per-worker partials in a log-depth tree: every
// round merges the back half into the front half concurrently, so the
// critical path is ⌈log2 n⌉ merges instead of the n-1 of the old
// pairwise fold — the hash fallback keeps scaling past ~8 workers.
func (p *preparedScan) mergeTree(parts []scanState) scanState {
	for n := len(parts); n > 1; {
		half := n / 2
		var wg sync.WaitGroup
		for i := 0; i < half; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i] = p.merge(parts[i], parts[n-1-i])
			}(i)
		}
		wg.Wait()
		n -= half
	}
	return parts[0]
}

// finalize materializes the merged state as a derived cube, column by
// column in the state's cell order.
func (p *preparedScan) finalize(s *mdm.Schema, names []string, st scanState) (*cube.Cube, error) {
	n := len(st.order)
	width := len(p.q.Group)
	coords := cube.Carve(make([]int32, n*width), n, width)
	cols := make([][]float64, len(p.q.Measures))
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for i, cell := range st.order {
		copy(coords[i], cell.coord)
		for j := range p.q.Measures {
			switch p.ops[j] {
			case mdm.AggAvg:
				cols[j][i] = cell.vals[j] / float64(cell.cnt[j])
			case mdm.AggCount:
				cols[j][i] = float64(cell.cnt[j])
			default:
				cols[j][i] = cell.vals[j]
			}
		}
	}
	return cube.Build(s, p.q.Group, names, coords, cols)
}

// parallelScan drives workers over the scan source and hands each
// claimed morsel to work (worker-private state is indexed by w). For a
// single-block source the block is decoded once up front and workers
// steal fixed-size morsels within it — the resident fast path, where
// the block is a zero-copy view of the table. Multi-block (segment)
// sources instead have workers steal whole blocks: each claimed block
// is decoded once into the worker's own scratch and iterated morsel by
// morsel locally, so decode cost is paid once per segment and the
// decoded buffers stay worker-private.
func (p *preparedScan) parallelScan(workers, morsel int, work func(w int, sc *morselScratch, cols storage.BlockCols, lo, hi int)) error {
	var wg sync.WaitGroup
	var morsels atomic.Int64
	if p.src.Blocks() == 1 {
		var bsc storage.BlockScratch
		cols, ok, err := p.src.Block(0, &bsc)
		if err != nil || !ok {
			return err
		}
		cur := &morselCursor{morsel: morsel, rows: cols.Rows}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := getScratch()
				defer putScratch(sc)
				n := int64(0)
				for {
					lo, hi, ok := cur.claim()
					if !ok {
						break
					}
					work(w, sc, cols, lo, hi)
					n++
				}
				morsels.Add(n)
			}(w)
		}
		wg.Wait()
		mMorsels.Add(morsels.Load())
		return nil
	}
	var next atomic.Int64
	errs := make(chan error, workers)
	nb := p.src.Blocks()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := getScratch()
			defer putScratch(sc)
			n := int64(0)
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					break
				}
				cols, ok, err := p.src.Block(b, &sc.block)
				if err != nil {
					errs <- err
					break
				}
				if !ok {
					continue
				}
				for lo := 0; lo < cols.Rows; lo += morsel {
					work(w, sc, cols, lo, min(lo+morsel, cols.Rows))
					n++
				}
			}
			morsels.Add(n)
		}(w)
	}
	wg.Wait()
	mMorsels.Add(morsels.Load())
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// runParallel executes the hash fallback across workers, then
// tree-merges the partials. Which worker scans which morsel races, so
// the merged cell order is scheduling-dependent; sorting by coordinate
// makes the result deterministic.
func (p *preparedScan) runParallel(workers, morsel int) (scanState, error) {
	parts := make([]scanState, workers)
	for w := range parts {
		parts[w] = scanState{cells: make(map[string]*aggState)}
	}
	err := p.parallelScan(workers, morsel, func(w int, sc *morselScratch, cols storage.BlockCols, lo, hi int) {
		if len(sc.coord) < len(p.q.Group) {
			sc.coord = make(mdm.Coordinate, len(p.q.Group))
		}
		p.runInto(&parts[w], sc.coord[:len(p.q.Group)], cols, lo, hi)
	})
	if err != nil {
		return scanState{}, err
	}
	out := p.mergeTree(parts)
	sort.Slice(out.order, func(i, j int) bool {
		a, b := out.order[i].coord, out.order[j].coord
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

// runDenseParallel executes the dense kernels across workers; each
// worker owns private accumulator arrays (allocated on first touch, so
// idle workers cost nothing), merged element-wise in a log-depth tree.
func (p *preparedScan) runDenseParallel(l *denseLayout, workers, morsel int) (*denseState, error) {
	states := make([]*denseState, workers)
	err := p.parallelScan(workers, morsel, func(w int, sc *morselScratch, cols storage.BlockCols, lo, hi int) {
		if states[w] == nil {
			states[w] = p.newDenseState(l, false)
		}
		p.denseMorsel(states[w], l, sc, cols, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	parts := states[:0]
	for _, st := range states {
		if st != nil {
			parts = append(parts, st)
		}
	}
	if len(parts) == 0 {
		return p.newDenseState(l, false), nil
	}
	for n := len(parts); n > 1; {
		half := n / 2
		var mg sync.WaitGroup
		for i := 0; i < half; i++ {
			mg.Add(1)
			go func(i int) {
				defer mg.Done()
				p.mergeDense(parts[i], parts[n-1-i])
			}(i)
		}
		mg.Wait()
		n -= half
	}
	return parts[0], nil
}
