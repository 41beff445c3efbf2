// Worker: the shard-side half of the partial-aggregate RPC. A worker
// wraps its own engine holding this shard's slice of each sharded fact
// and answers ScanRequests with partial cubes plus the shard fact's
// generation, which the coordinator reconciles at merge time.
package dist

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/storage"
)

// Worker serves partial-aggregate scans over its shard of each fact.
type Worker struct {
	eng     *engine.Engine
	scans   atomic.Int64
	appends atomic.Int64
}

// NewWorker returns a worker with an empty engine; register shard facts
// with Register, tune scan knobs through Engine.
func NewWorker() *Worker {
	return &Worker{eng: engine.New()}
}

// Engine exposes the worker's engine so callers can set scan knobs
// (parallelism, dense budget, morsel size) on the shard side.
func (w *Worker) Engine() *engine.Engine { return w.eng }

// Register adds a shard fact under the coordinator-visible fact name.
func (w *Worker) Register(name string, f *storage.FactTable) error {
	return w.eng.Register(name, f)
}

// Scan evaluates one partial-aggregate request against the shard and
// returns the shard fact's generation alongside the partial cube. The
// scan ends with ctx's error once ctx is cancelled — a coordinator that
// abandoned the attempt at its per-shard deadline, or a client that hung
// up, stops costing the worker decode work. The worker's zone maps still
// see the request's predicates, so segment-backed shards prune exactly
// like a local scan would.
func (w *Worker) Scan(ctx context.Context, req *ScanRequest) (uint64, *cube.Cube, error) {
	f, ok := w.eng.Fact(req.Fact)
	if !ok {
		return 0, nil, fmt.Errorf("dist: worker has no shard of fact %s", req.Fact)
	}
	q, ops, err := req.query()
	if err != nil {
		return 0, nil, err
	}
	c, err := w.eng.ScanWithOps(ctx, q, ops, req.Names)
	if err != nil {
		return 0, nil, err
	}
	w.scans.Add(1)
	return f.Version(), c, nil
}

// Append appends one row to the worker's shard of the fact and returns
// the new shard generation. The coordinator routes each append to the
// owning shard; appending here directly is allowed but see the
// coherence contract in docs/distribution.md.
func (w *Worker) Append(fact string, keys []int32, vals []float64) (uint64, error) {
	f, ok := w.eng.Fact(fact)
	if !ok {
		return 0, fmt.Errorf("dist: worker has no shard of fact %s", fact)
	}
	if err := f.Append(keys, vals); err != nil {
		return 0, err
	}
	w.appends.Add(1)
	return f.Version(), nil
}

// WorkerStats is the /dist/stats snapshot of one worker.
type WorkerStats struct {
	Scans   int64             `json:"scans"`
	Appends int64             `json:"appends"`
	Facts   []WorkerFactStats `json:"facts"`
}

// WorkerFactStats describes one shard fact held by a worker.
type WorkerFactStats struct {
	Fact       string `json:"fact"`
	Rows       int    `json:"rows"`
	Generation uint64 `json:"generation"`
}

// Stats snapshots the worker's counters and shard facts.
func (w *Worker) Stats() WorkerStats {
	st := WorkerStats{Scans: w.scans.Load(), Appends: w.appends.Load()}
	for _, name := range w.eng.Facts() {
		f, ok := w.eng.Fact(name)
		if !ok {
			continue
		}
		st.Facts = append(st.Facts, WorkerFactStats{Fact: name, Rows: f.Rows(), Generation: f.Version()})
	}
	return st
}
