// Package engine is the query engine standing in for the Oracle DBMS of
// the paper's prototype (Section 6). It evaluates cube queries (the
// logical get operator) over columnar star-schema fact tables and, like a
// DBMS accepting richer SQL, can additionally evaluate drill-across joins
// (Listing 4, used by JOP plans) and pivots (Listing 5, used by POP plans)
// engine-side before results cross to the client.
//
// The engine/client boundary is explicit: every result set is serialized
// into a binary row format and decoded into a client cube, exactly like a
// DBMS cursor. This is what differentiates the plans of Section 5: a
// Naive Plan transfers the target and benchmark cubes separately
// (including tuples that will not join) and joins them in client memory,
// while JOP and POP transfer only the joined (or pivoted) rows once.
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

// Predicate is one selection predicate over one level of a hierarchy
// (Definition 2.6): level = member, or level ∈ {members} for the member
// lists used by sibling and past benchmarks.
type Predicate struct {
	Level   mdm.LevelRef
	Members []int32 // member ids at Level; a single id is an equality
}

// Query is a cube query q = (C0, G, P, M) (Definition 2.6): the named
// detailed cube, a group-by set, selection predicates, and the indices of
// the requested measures.
type Query struct {
	Fact     string
	Group    mdm.GroupBy
	Preds    []Predicate
	Measures []int
}

// Engine holds the registered detailed cubes (fact tables) and any
// materialized views. Queries may run concurrently (e.g. from the HTTP
// server); fact registration and the knob setters must happen before
// queries start, but the view catalog is guarded by viewMu — adaptive
// admission and view refresh mutate it mid-traffic.
type Engine struct {
	facts map[string]*storage.FactTable
	// viewMu guards views and the byte accounting below; admission and
	// view refresh write while queries read.
	viewMu    sync.RWMutex
	views     map[viewKey]*matView
	viewBytes int64 // approximate resident bytes, all views
	autoBytes int64 // subset belonging to admitted (auto) views
	// useTick is the logical clock behind the admitted views' LRU.
	useTick atomic.Int64
	// autoMu guards the adaptive-admission tally and knobs.
	autoMu sync.Mutex
	auto   autoAdmit
	// workers is the fact-scan parallelism (1 = serial, the default).
	workers int
	// denseBudget is the dense key-space slot budget: >0 explicit,
	// 0 the DefaultDenseKeyBudget default, <0 dense kernels disabled
	// (see SetDenseKeyBudget in kernel.go).
	denseBudget int
	// morselSize is the scan morsel size in rows (0 selects the
	// DefaultMorselSize default).
	morselSize int
	// gen counts catalog mutations (Register, Materialize); together
	// with the fact tables' append versions it forms the monotonic
	// generation that invalidates query-result cache entries. Admitting
	// or evicting a view changes no answer and leaves it alone.
	gen atomic.Uint64
	// batcher, when set, answers query-path fact scans in the engine's
	// place (see SetScanBatcher).
	batcher ScanBatcher
}

// ScanBatcher is the seam through which dist.Coordinator takes over the
// scans of sharded facts; nothing batches scans any more (the name stays
// because the frozen benchmark module compiles against it). Scan must
// return exactly the cube the engine's own scan for (q, ops, names) would
// produce. Only query-path scans are routed through it — view
// materialization keeps its direct scan.
type ScanBatcher interface {
	Scan(ctx context.Context, q Query, ops []mdm.AggOp, names []string) (*cube.Cube, error)
}

// SetScanBatcher installs (or, with nil, removes) the coordinator that
// scans sharded facts. Like the engine knobs it must be set before
// queries start.
func (e *Engine) SetScanBatcher(b ScanBatcher) { e.batcher = b }

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		facts: make(map[string]*storage.FactTable),
		views: make(map[viewKey]*matView),
	}
}

// Register adds a detailed cube under its name.
func (e *Engine) Register(name string, f *storage.FactTable) error {
	if _, dup := e.facts[name]; dup {
		return fmt.Errorf("engine: cube %s already registered", name)
	}
	e.facts[name] = f
	e.gen.Add(1)
	return nil
}

// Generation is the monotonic catalog generation: it advances whenever a
// cube is registered or materialized and whenever rows are appended to a
// registered fact table, never when adaptive admission admits or evicts
// a view, which changes no answer. Query-result cache entries are tagged
// with the generation observed at evaluation time; a later generation
// makes them stale. Registering facts concurrently with queries is
// already unsupported (see Engine doc), so summing fact versions here is
// safe.
func (e *Engine) Generation() uint64 {
	g := e.gen.Load()
	for _, f := range e.facts {
		g += f.Version()
	}
	return g
}

// Fact returns the registered detailed cube.
func (e *Engine) Fact(name string) (*storage.FactTable, bool) {
	f, ok := e.facts[name]
	return f, ok
}

// Facts returns the names of the registered detailed cubes.
func (e *Engine) Facts() []string {
	out := make([]string, 0, len(e.facts))
	for n := range e.facts {
		out = append(out, n)
	}
	return out
}

// aggregate evaluates the get operator engine-side, before any transfer:
// from the view lattice when a materialized view covers the query
// (exactly, or at a strictly finer group-by set re-aggregated by the
// navigator), otherwise by a fact-table scan. A lattice miss feeds the
// rows its scan swept to the adaptive admission tally once the scan has
// answered it.
func (e *Engine) aggregate(ctx context.Context, q Query) (*cube.Cube, error) {
	if v, exact := e.lookupView(q); v != nil {
		mScansView.Inc()
		if exact {
			mViewExact.Inc()
			return aggregateFromView(v, q)
		}
		mViewRollup.Inc()
		return e.rollupFromView(ctx, e.facts[q.Fact], v, q)
	}
	mViewMiss.Inc()
	c, swept, err := e.scanAggregate(ctx, q)
	if err != nil {
		return nil, err
	}
	e.noteViewMiss(q, swept)
	return c, nil
}

// scanAggregate scans the fact table (serially, or partitioned across
// workers when parallelism is enabled), filters rows through the
// predicates, and aggregates the requested measures by the group-by
// coordinates; it reports the rows the scan swept. With a coordinator
// installed (SetScanBatcher) the scan is submitted there instead, and
// counts as a sweep of the whole fact.
func (e *Engine) scanAggregate(ctx context.Context, q Query) (*cube.Cube, int, error) {
	f, ok := e.facts[q.Fact]
	if !ok {
		return nil, 0, fmt.Errorf("engine: unknown cube %s", q.Fact)
	}
	ops, names, err := schemaOps(f.Schema, q)
	if err != nil {
		return nil, 0, err
	}
	if b := e.batcher; b != nil {
		c, err := b.Scan(ctx, q, ops, names)
		return c, f.Rows(), err
	}
	return e.scanWithOps(ctx, f, q, ops, names)
}

// schemaOps reads the query's per-measure operators and output names off
// the schema.
func schemaOps(s *mdm.Schema, q Query) ([]mdm.AggOp, []string, error) {
	ops := make([]mdm.AggOp, len(q.Measures))
	names := make([]string, len(q.Measures))
	for j, mi := range q.Measures {
		if mi < 0 || mi >= len(s.Measures) {
			return nil, nil, fmt.Errorf("engine: measure index %d out of range for %s", mi, q.Fact)
		}
		ops[j] = s.Measures[mi].Op
		names[j] = s.Measures[mi].Name
	}
	return ops, names, nil
}

// ScanWithOps is scanAggregate with the per-measure operators and output
// names supplied by the caller instead of read off the schema, bypassing
// views and the coordinator: q.Measures index fact columns, ops[j]
// aggregates column q.Measures[j] into output names[j]. A cancelled ctx
// ends the scan with the context's error. The distributed layer
// (internal/dist) builds on it twice: workers compute a shard's
// sub-aggregates with it (zone-map pruning still applies via q.Preds), and
// the coordinator's local fallback reproduces a lost shard's part by
// scanning the local copy under a synthesized shard-ownership predicate.
func (e *Engine) ScanWithOps(ctx context.Context, q Query, ops []mdm.AggOp, names []string) (*cube.Cube, error) {
	f, ok := e.facts[q.Fact]
	if !ok {
		return nil, fmt.Errorf("engine: unknown cube %s", q.Fact)
	}
	c, _, err := e.scanWithOps(ctx, f, q, ops, names)
	return c, err
}

// scanWithOps is ScanWithOps over the registered fact f, reporting the
// rows the scan swept.
func (e *Engine) scanWithOps(ctx context.Context, f *storage.FactTable, q Query, ops []mdm.AggOp, names []string) (*cube.Cube, int, error) {
	sq, err := e.prepare(ctx, f, q, ops)
	if err != nil {
		return nil, 0, err
	}
	t, swept, err := e.scanFact(f, sq)
	if err != nil {
		return nil, 0, err
	}
	c, err := sq.finalize(f.Schema, names, t)
	return c, swept, err
}

// prepare lays out everything a fact scan needs before touching data: the
// predicates with their acceptance vectors, group-level roll-up maps (both
// read off the hierarchies, which own the derivation) and the key space
// over their cardinalities, and the column set the scan will read.
func (e *Engine) prepare(ctx context.Context, f *storage.FactTable, q Query, ops []mdm.AggOp) (*scanQuery, error) {
	s := f.Schema
	if len(ops) != len(q.Measures) {
		return nil, fmt.Errorf("engine: %d operators for %d measures of %s", len(ops), len(q.Measures), q.Fact)
	}
	for _, mi := range q.Measures {
		if mi < 0 || mi >= f.NumMeasures() {
			return nil, fmt.Errorf("engine: measure index %d out of range for %s", mi, q.Fact)
		}
	}
	// The predicates in the backend's form, and their acceptance vectors
	// over base member ids: derived once per predicated hierarchy, read by
	// the kernel's selection and by a backend that filters rows itself.
	preds := make([]storage.LevelPred, len(q.Preds))
	for i, p := range q.Preds {
		if !s.HasLevel(p.Level) {
			return nil, fmt.Errorf("engine: predicate level out of range for %s", q.Fact)
		}
		preds[i] = storage.LevelPred{Hier: p.Level.Hier, Level: p.Level.Level, Members: p.Members}
	}
	accepts := storage.Accepts(s, preds)
	// Per-group-level roll-up maps and level cardinalities. The
	// cardinalities are snapshotted here, after the roll-up maps, so the
	// key space sees a domain at least as large as any id a map emits.
	gmaps := make([][]int32, len(q.Group))
	cards := make([]int, len(q.Group))
	for gi, ref := range q.Group {
		if !s.HasLevel(ref) {
			return nil, fmt.Errorf("engine: group-by level out of range for %s", q.Fact)
		}
		gmaps[gi] = s.Hiers[ref.Hier].LevelMap(0, ref.Level)
		cards[gi] = s.Dict(ref).Len()
	}
	// Columns the scan touches and predicates usable for segment
	// pruning: the backend may skip a block only when its zone maps
	// prove no row satisfies some predicate, so pruning never changes
	// the aggregate — it just avoids decode work.
	needKeys := make([]bool, len(s.Hiers))
	for _, ref := range q.Group {
		needKeys[ref.Hier] = true
	}
	needMeas := make([]bool, f.NumMeasures())
	for _, mi := range q.Measures {
		needMeas[mi] = true
	}
	var predOnly []bool
	for _, p := range q.Preds {
		if !needKeys[p.Level.Hier] {
			// Filtered on but not grouped by: a bitmap-producing
			// backend may evaluate this column in code space and never
			// materialize it (storage.ColSet.PredOnly).
			if predOnly == nil {
				predOnly = make([]bool, len(s.Hiers))
			}
			predOnly[p.Level.Hier] = true
		}
		needKeys[p.Level.Hier] = true
	}
	sq := &scanQuery{
		ctx:      ctx,
		group:    q.Group,
		measures: q.Measures,
		ops:      ops,
		accepts:  accepts,
		gmaps:    gmaps,
		need:     storage.ColSet{Keys: needKeys, Meas: needMeas, PredOnly: predOnly},
		preds:    preds,
	}
	sq.init(cards, e.denseKeyBudget())
	return sq, nil
}

// FactStorage describes one fact table's physical backend, surfaced by
// the server's /stats endpoint.
type FactStorage struct {
	Fact        string `json:"fact"`
	Backend     string `json:"backend"` // "resident" or "segment"
	Rows        int    `json:"rows"`
	Segments    int    `json:"segments,omitempty"`
	SegmentRows int    `json:"segmentRows,omitempty"`
	TailRows    int    `json:"tailRows,omitempty"`
	DiskBytes   int64  `json:"diskBytes,omitempty"`
	Compactions int64  `json:"compactions,omitempty"`
}

// StorageStats reports the physical backend of every registered fact
// table, sorted by cube name.
func (e *Engine) StorageStats() []FactStorage {
	out := make([]FactStorage, 0, len(e.facts))
	for name, f := range e.facts {
		fs := FactStorage{Fact: name, Backend: "resident", Rows: f.Rows()}
		if seg := f.Segments(); seg != nil {
			info := seg.Info()
			fs.Backend = "segment"
			fs.Segments = info.Segments
			fs.SegmentRows = info.SegmentRows
			fs.TailRows = info.TailRows
			fs.DiskBytes = info.DiskBytes
			fs.Compactions = info.Compactions
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fact < out[j].Fact })
	return out
}

// Get evaluates a cube query and transfers the derived cube to the client
// (the only operation pushed to SQL in a Naive Plan).
func (e *Engine) Get(q Query) (*cube.Cube, error) {
	return e.GetContext(context.Background(), q)
}

// GetContext is Get with a caller context: cancelling it ends the fact
// scan with the context's error.
func (e *Engine) GetContext(ctx context.Context, q Query) (*cube.Cube, error) {
	c, err := e.aggregate(ctx, q)
	if err != nil {
		return nil, err
	}
	return transfer(c)
}

// GetJoinedContext evaluates two cube queries and their (partial,
// possibly left-outer) join engine-side, transferring only the joined
// rows: the subexpression C ⋈ B pushed to SQL by a Join-Optimized Plan
// (Listing 4). The right cube's measures are prefixed with alias.
// Cancelling ctx ends the fact scans (see GetContext).
func (e *Engine) GetJoinedContext(ctx context.Context, qc, qb Query, on []mdm.LevelRef, alias string, outer bool) (*cube.Cube, error) {
	c, err := e.aggregate(ctx, qc)
	if err != nil {
		return nil, err
	}
	b, err := e.aggregate(ctx, qb)
	if err != nil {
		return nil, err
	}
	j, err := cube.PartialJoin(c, b, on, alias, outer)
	if err != nil {
		return nil, err
	}
	return transfer(j)
}

// GetPivotedContext evaluates one cube query covering all slices and
// pivots it engine-side on the reference member: the get+pivot
// subexpression pushed to SQL by a Pivot-Optimized Plan (Listing 5). The
// aggregate is answered like any other (exact view, roll-up of a finer
// view, or fact scan) and pivoted by cube.Pivot, the same operator an NP
// plan runs client-side, so only the pivoted rows cross the cursor
// boundary. neighbors fixes the benchmark slice columns (nil infers them
// from the data). When strict is true, cells missing any neighbor slice
// are filtered out (the "is not null" clauses); the assess* variant keeps
// them with nulls.
func (e *Engine) GetPivotedContext(ctx context.Context, q Query, level mdm.LevelRef, ref int32, neighbors []int32, strict bool, rename func(measure, member string) string) (*cube.Cube, error) {
	c, err := e.aggregate(ctx, q)
	if err != nil {
		return nil, err
	}
	p, err := cube.Pivot(c, level, ref, neighbors, strict, rename)
	if err != nil {
		return nil, err
	}
	return transfer(p)
}

// GetMultipliedContext evaluates two cube queries and their one-to-many
// partial join engine-side (the pushed C ⋈ B of a Join-Optimized Plan
// over a past benchmark, Example 5.3): one output row per (target cell,
// slice member) pair, transferred once.
func (e *Engine) GetMultipliedContext(ctx context.Context, qc, qb Query, level mdm.LevelRef, members []int32, alias string, outer bool) (*cube.Cube, error) {
	c, err := e.aggregate(ctx, qc)
	if err != nil {
		return nil, err
	}
	b, err := e.aggregate(ctx, qb)
	if err != nil {
		return nil, err
	}
	m, err := cube.MultiplyJoin(c, b, level, members, alias, outer)
	if err != nil {
		return nil, err
	}
	return transfer(m)
}

// GetRollupJoinedContext evaluates the target query and its ancestor
// benchmark engine-side: the benchmark is the target query re-grouped at
// the coarser group-by set, and each target cell is joined with the
// benchmark cell its coordinate rolls up to. Only the joined rows cross
// to the client (the JOP form of an ancestor benchmark).
func (e *Engine) GetRollupJoinedContext(ctx context.Context, qc, qb Query, alias string, outer bool) (*cube.Cube, error) {
	c, err := e.aggregate(ctx, qc)
	if err != nil {
		return nil, err
	}
	b, err := e.aggregate(ctx, qb)
	if err != nil {
		return nil, err
	}
	j, err := cube.RollupJoin(c, b, alias, outer)
	if err != nil {
		return nil, err
	}
	return transfer(j)
}

// Cardinality returns |C| for a cube query without transferring the
// result (used by the Table 2 experiment).
func (e *Engine) Cardinality(q Query) (int, error) {
	c, err := e.aggregate(context.Background(), q)
	if err != nil {
		return 0, err
	}
	return c.Len(), nil
}
