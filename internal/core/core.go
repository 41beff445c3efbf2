// Package core implements the paper's primary contribution end-to-end:
// it wires the assess language (parser), the semantic binder, the plan
// builder, and the executor into a session against the query engine. A
// statement submitted to a session is parsed, bound, planned with the
// best feasible strategy (POP when applicable, else JOP, else NP — the
// ordering established by the paper's Section 6 experiments), and
// executed.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/semantic"
	"github.com/assess-olap/assess/internal/storage"
)

// Session-level metrics. Error counters are split by the lifecycle stage
// that rejected the statement; query totals are labeled by strategy and
// benchmark kind so /metrics can answer "how many POP past-benchmark
// queries ran" directly.
var (
	mQuerySeconds = obsv.Default.Histogram("assess_query_seconds",
		"End-to-end assess statement latency, parse through sorted result.")
	mGetQueries = obsv.Default.Counter("assess_get_queries_total",
		"Plain cube queries (get statements) executed.")
	mDeclares = obsv.Default.Counter("assess_declares_total",
		"Declare statements executed (labeler registrations).")
	mErrParse = obsv.Default.Counter("assess_query_errors_total",
		"Statements rejected, by lifecycle stage.", "stage", "parse")
	mErrBind = obsv.Default.Counter("assess_query_errors_total",
		"Statements rejected, by lifecycle stage.", "stage", "bind")
	mErrPlan = obsv.Default.Counter("assess_query_errors_total",
		"Statements rejected, by lifecycle stage.", "stage", "plan")
	mErrExec = obsv.Default.Counter("assess_query_errors_total",
		"Statements rejected, by lifecycle stage.", "stage", "exec")
)

// queryCounter returns the assess_queries_total series for one
// (strategy, benchmark kind) pair.
func queryCounter(strat plan.Strategy, kind parser.BenchmarkKind) *obsv.Counter {
	return obsv.Default.Counter("assess_queries_total",
		"Assess statements executed, by strategy and benchmark kind.",
		"strategy", strat.String(), "kind", kind.String())
}

// CacheState reports whether a statement's result came from the
// query-result cache ("hit"), was evaluated ("miss"), or whether no
// cache is configured ("").
type CacheState = qcache.State

// Session holds the engine catalog and the function and labeler
// registries for a sequence of assess statements.
type Session struct {
	Engine *engine.Engine
	Binder *semantic.Binder
	// cache, when non-nil, memoizes finished execution results, and the
	// encoded bodies of those that repeat, keyed by the fingerprint of the
	// bound plan. Enable with EnableCache.
	cache *qcache.Cache
	// regGen counts registry mutations (functions, labelers); folded into
	// the cache generation so redefinitions invalidate cached results.
	regGen atomic.Uint64
	// dist, when non-nil, scatter-gathers scans over sharded facts.
	// Enable with EnableDistributed.
	dist *dist.Coordinator
}

// NewSession returns an empty session with the default library functions
// and labelers.
func NewSession() *Session {
	e := engine.New()
	return &Session{Engine: e, Binder: semantic.NewBinder(e)}
}

// EnableCache attaches a query-result cache with the given byte budget
// (<= 0 selects the 64 MiB default), the total for results and the
// encoded bodies kept with them, and turns on the engine's adaptive view
// admission under a budget of the same size: a covering set whose misses
// have swept as many rows as its view takes to build is materialized,
// with LRU eviction among admitted views. Cached results are shared
// across callers and must be treated as read-only. Call before serving
// traffic.
func (s *Session) EnableCache(maxBytes int64) {
	s.cache = qcache.New(maxBytes)
	s.Engine.SetAutoViews(s.cache.Stats().BudgetBytes)
}

// CacheStats snapshots the cache counters; ok is false when no cache is
// configured.
func (s *Session) CacheStats() (stats qcache.Stats, ok bool) {
	if s.cache == nil {
		return qcache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// EnableDistributed installs a distributed scatter-gather coordinator
// on the session's engine. Scans of facts the coordinator knows as
// sharded fan out to shard workers; everything else falls through to a
// direct engine scan. Call before serving traffic.
func (s *Session) EnableDistributed(c *dist.Coordinator) {
	s.dist = c
	s.Engine.SetScanBatcher(c)
}

// DistStats snapshots the distributed coordinator; ok is false when
// distribution is not enabled.
func (s *Session) DistStats() (stats dist.Stats, ok bool) {
	if s.dist == nil {
		return dist.Stats{}, false
	}
	return s.dist.Stats(), true
}

// Distributed returns the session's coordinator (nil when distribution
// is not enabled); the server uses it to route appends and expose
// shard snapshots.
func (s *Session) Distributed() *dist.Coordinator { return s.dist }

// ViewStats snapshots the engine's materialized-view catalog and
// admission accounting (the /stats view section).
func (s *Session) ViewStats() engine.ViewStats {
	return s.Engine.ViewStatsSnapshot()
}

// Generation is the session's cache-invalidation generation: the engine
// catalog generation (registrations, materializations, fact appends)
// plus registry mutations.
func (s *Session) Generation() uint64 {
	return s.Engine.Generation() + s.regGen.Load()
}

// RegisterCube adds a detailed cube (fact table) to the catalog.
func (s *Session) RegisterCube(name string, f *storage.FactTable) error {
	return s.Engine.Register(name, f)
}

// Materialize pre-aggregates a registered cube at the given group-by
// levels, like the materialized views of the paper's Oracle setup
// (Section 6): later statements grouped exactly by those levels are
// answered from the view.
func (s *Session) Materialize(cubeName string, levels ...string) error {
	f, ok := s.Engine.Fact(cubeName)
	if !ok {
		return fmt.Errorf("assess: unknown cube %q", cubeName)
	}
	g, err := mdm.NewGroupBy(f.Schema, levels...)
	if err != nil {
		return err
	}
	return s.Engine.Materialize(cubeName, g)
}

// RegisterFunc adds a comparison/transformation function to the library.
func (s *Session) RegisterFunc(f *funcs.Func) error {
	s.regGen.Add(1)
	return s.Binder.Funcs.Register(f)
}

// RegisterLabeler adds a predeclared labeling function to the library.
func (s *Session) RegisterLabeler(l labeling.Labeler) error {
	s.regGen.Add(1)
	return s.Binder.Labelers.Register(l)
}

// Prepare parses, binds, and plans a statement with the best feasible
// strategy without executing it.
func (s *Session) Prepare(stmt string) (*plan.Plan, error) {
	return s.PrepareContext(context.Background(), stmt)
}

// PrepareContext is Prepare with the query lifecycle traced into the
// context's span tree (obsv.NewTrace): parse → bind → plan-select.
func (s *Session) PrepareContext(ctx context.Context, stmt string) (*plan.Plan, error) {
	return s.prepare(ctx, stmt, BestStrategy)
}

// PrepareWith parses, binds, and plans a statement with an explicit
// strategy.
func (s *Session) PrepareWith(stmt string, strategy plan.Strategy) (*plan.Plan, error) {
	return s.PrepareWithContext(context.Background(), stmt, strategy)
}

// PrepareWithContext is PrepareWith with lifecycle tracing.
func (s *Session) PrepareWithContext(ctx context.Context, stmt string, strategy plan.Strategy) (*plan.Plan, error) {
	return s.prepare(ctx, stmt, func(parser.BenchmarkKind) plan.Strategy { return strategy })
}

// prepare binds a statement and builds the plan of the strategy pick
// returns for its benchmark kind, in the "plan" span, noting the
// strategy.
func (s *Session) prepare(ctx context.Context, stmt string, pick func(parser.BenchmarkKind) plan.Strategy) (*plan.Plan, error) {
	b, err := s.bindContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	_, sp := obsv.StartSpan(ctx, "plan")
	p, err := plan.Build(b, pick(b.Bench.Kind))
	if err != nil {
		mErrPlan.Inc()
	} else if sp != nil {
		sp.SetNote(fmt.Sprintf("%v/%v", p.Strategy, b.Bench.Kind))
	}
	sp.End()
	return p, err
}

// bindContext parses and binds under "parse" and "bind" spans, counting
// rejections into the per-stage error counters.
func (s *Session) bindContext(ctx context.Context, stmt string) (*semantic.Bound, error) {
	_, sp := obsv.StartSpan(ctx, "parse")
	st, err := parser.Parse(stmt)
	sp.End()
	if err != nil {
		mErrParse.Inc()
		return nil, err
	}
	_, sp = obsv.StartSpan(ctx, "bind")
	b, err := s.Binder.Bind(st)
	sp.End()
	if err != nil {
		mErrBind.Inc()
		return nil, err
	}
	return b, nil
}

// run executes a built plan, consulting the query-result cache when one
// is enabled: the cache key is the fingerprint of the bound plan and its
// strategy, validated against the current catalog generation, and
// concurrent identical statements share one evaluation (singleflight).
// The "execute" span nests the cache probe/store and the per-operation
// engine spans.
func (s *Session) run(ctx context.Context, p *plan.Plan) (*exec.Result, CacheState, error) {
	ctx, sp := obsv.StartSpan(ctx, "execute")
	var (
		res   *exec.Result
		state CacheState
		err   error
	)
	if s.cache == nil {
		res, err = exec.RunContext(ctx, s.Engine, p)
		state = qcache.StateOff
	} else {
		key := qcache.Fingerprint(p.Bound, p.Strategy)
		res, state, err = s.cache.DoContext(ctx, key, s.Generation(), func() (*exec.Result, error) {
			return exec.RunContext(ctx, s.Engine, p)
		})
	}
	if err != nil {
		mErrExec.Inc()
		sp.End()
		return nil, state, err
	}
	if state != qcache.StateOff {
		sp.SetNote(string(state))
	}
	sp.End()
	queryCounter(p.Strategy, p.Bound.Bench.Kind).Inc()
	return res, state, err
}

// execute prepares a statement with the strategy pick returns for its
// benchmark kind, runs it, and observes the end-to-end statement latency
// on success.
func (s *Session) execute(ctx context.Context, stmt string, pick func(parser.BenchmarkKind) plan.Strategy) (*exec.Result, CacheState, error) {
	start := time.Now()
	p, err := s.prepare(ctx, stmt, pick)
	if err != nil {
		return nil, qcache.StateOff, err
	}
	res, state, err := s.run(ctx, p)
	if err == nil {
		mQuerySeconds.Observe(time.Since(start).Seconds())
	}
	return res, state, err
}

// CacheProbe reports whether executing the plan now would hit the cache
// (used by /explain); it does not touch counters or recency.
func (s *Session) CacheProbe(p *plan.Plan) CacheState {
	if s.cache == nil {
		return qcache.StateOff
	}
	if s.cache.Peek(qcache.Fingerprint(p.Bound, p.Strategy), s.Generation()) {
		return qcache.StateHit
	}
	return qcache.StateMiss
}

// TrackBody derives the context a server executes a statement under
// when it can reply from the encoded rows the cache keeps with a result
// that repeats (qcache.Body) instead of encoding the cube again. The
// returned Body is nil when the session has no cache. A statement
// executed under the context may hit an entry that holds only its rows:
// its result then has no Cube, and the Body has the rows and the cell
// count. Callers that do not track a Body always get the cube.
func (s *Session) TrackBody(ctx context.Context) (context.Context, *qcache.Body) {
	if s.cache == nil {
		return ctx, nil
	}
	return qcache.TrackBody(ctx)
}

// Exec runs a statement with the best feasible strategy. A declare
// statement ("declare labels <name> {ranges}") registers a named
// labeling function instead of producing a result, and returns (nil,
// nil).
func (s *Session) Exec(stmt string) (*exec.Result, error) {
	r, _, err := s.ExecTracked(stmt)
	return r, err
}

// ExecTracked is Exec, also reporting whether the result came from the
// query-result cache.
func (s *Session) ExecTracked(stmt string) (*exec.Result, CacheState, error) {
	return s.ExecTrackedContext(context.Background(), stmt)
}

// ExecTrackedContext is ExecTracked with the query lifecycle traced into
// the context's span tree when one is attached (obsv.NewTrace): parse →
// bind → plan-select → execute (cache probe/store and per-operation
// engine/client spans nested beneath).
func (s *Session) ExecTrackedContext(ctx context.Context, stmt string) (*exec.Result, CacheState, error) {
	if parser.IsDeclaration(stmt) {
		mDeclares.Inc()
		return nil, qcache.StateOff, s.Declare(stmt)
	}
	return s.execute(ctx, stmt, BestStrategy)
}

// QueryResult is the outcome of a plain cube query (get statement).
type QueryResult struct {
	Cube  *cube.Cube
	Total time.Duration
}

// Render formats the derived cube as a text table.
func (r *QueryResult) Render() string { return r.Cube.String() }

// Query executes a plain cube query written with the get operator:
// "with C0 [for P] by G get m1, m2". The result is the derived cube of
// Definition 2.6, sorted by coordinate, with its deprecated Coords filled
// for callers that still range over them.
func (s *Session) Query(stmt string) (*QueryResult, error) {
	qr, err := s.QueryContext(context.Background(), stmt)
	if err == nil {
		qr.Cube.Coords = make([]mdm.Coordinate, qr.Cube.Len())
		for i := range qr.Cube.Coords {
			qr.Cube.Coords[i] = qr.Cube.Coord(i)
		}
	}
	return qr, err
}

// QueryContext is Query with lifecycle tracing (parse → bind →
// execute/engine.scan spans), and with Coords left nil.
func (s *Session) QueryContext(ctx context.Context, stmt string) (*QueryResult, error) {
	_, sp := obsv.StartSpan(ctx, "parse")
	st, err := parser.Parse(stmt)
	sp.End()
	if err != nil {
		mErrParse.Inc()
		return nil, err
	}
	if !st.IsGet() {
		return nil, fmt.Errorf("assess: not a get statement; execute assessments with Exec")
	}
	_, sp = obsv.StartSpan(ctx, "bind")
	q, err := s.Binder.BindGet(st)
	sp.End()
	if err != nil {
		mErrBind.Inc()
		return nil, err
	}
	start := time.Now()
	ctx, sp = obsv.StartSpan(ctx, "execute")
	_, scan := obsv.StartSpan(ctx, "engine.scan")
	c, err := s.Engine.GetContext(ctx, q)
	if err != nil {
		scan.End()
		sp.End()
		mErrExec.Inc()
		return nil, err
	}
	scan.SetRows(0, int64(c.Len()))
	scan.End()
	c.SortByCoordinate()
	sp.End()
	mGetQueries.Inc()
	mQuerySeconds.Observe(time.Since(start).Seconds())
	return &QueryResult{Cube: c, Total: time.Since(start)}, nil
}

// IsGetStatement reports whether the statement is a plain cube query.
func IsGetStatement(stmt string) bool {
	st, err := parser.Parse(stmt)
	return err == nil && st.IsGet()
}

// Declare executes a declare statement, predeclaring a named range-based
// labeling function (Section 4.1).
func (s *Session) Declare(stmt string) error {
	d, err := parser.ParseDeclaration(stmt)
	if err != nil {
		return err
	}
	intervals := make([]labeling.Interval, len(d.Ranges))
	for i, r := range d.Ranges {
		intervals[i] = labeling.Interval{
			Lo: r.Lo, Hi: r.Hi, LoOpen: r.LoOpen, HiOpen: r.HiOpen, Label: r.Label,
		}
	}
	l, err := labeling.NewRanges(d.Name, intervals)
	if err != nil {
		return fmt.Errorf("assess: invalid declaration: %w", err)
	}
	return s.RegisterLabeler(l)
}

// ExecWith runs a statement with an explicit strategy.
func (s *Session) ExecWith(stmt string, strategy plan.Strategy) (*exec.Result, error) {
	r, _, err := s.ExecWithTracked(stmt, strategy)
	return r, err
}

// ExecWithTracked is ExecWith, also reporting whether the result came
// from the query-result cache.
func (s *Session) ExecWithTracked(stmt string, strategy plan.Strategy) (*exec.Result, CacheState, error) {
	return s.ExecWithTrackedContext(context.Background(), stmt, strategy)
}

// ExecWithTrackedContext is ExecWithTracked with lifecycle tracing.
func (s *Session) ExecWithTrackedContext(ctx context.Context, stmt string, strategy plan.Strategy) (*exec.Result, CacheState, error) {
	return s.execute(ctx, stmt, func(parser.BenchmarkKind) plan.Strategy { return strategy })
}

// Explain returns the plan description for a statement under the best
// feasible strategy.
func (s *Session) Explain(stmt string) (string, error) {
	p, err := s.Prepare(stmt)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// BestStrategy returns the fastest feasible strategy for a benchmark
// kind, following the experimental conclusion of Section 6: "JOP, when
// applicable, outperforms NP, and POP, when applicable, outperforms JOP
// and NP".
func BestStrategy(kind parser.BenchmarkKind) plan.Strategy {
	switch {
	case plan.Feasible(plan.POP, kind):
		return plan.POP
	case plan.Feasible(plan.JOP, kind):
		return plan.JOP
	}
	return plan.NP
}

// FeasibleStrategies lists the strategies applicable to a benchmark kind
// in paper order.
func FeasibleStrategies(kind parser.BenchmarkKind) []plan.Strategy {
	var out []plan.Strategy
	for _, s := range plan.Strategies() {
		if plan.Feasible(s, kind) {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkKind parses a statement far enough to report its benchmark
// kind (useful to the experiment harness).
func (s *Session) BenchmarkKind(stmt string) (parser.BenchmarkKind, error) {
	b, err := s.bindContext(context.Background(), stmt)
	if err != nil {
		return 0, err
	}
	return b.Bench.Kind, nil
}

// Cardinality returns |C|, the number of cells of the target cube of the
// statement (Table 2 of the paper).
func (s *Session) Cardinality(stmt string) (int, error) {
	b, err := s.bindContext(context.Background(), stmt)
	if err != nil {
		return 0, err
	}
	return s.Engine.Cardinality(engine.Query{
		Fact: b.Fact, Group: b.Group, Preds: b.Preds, Measures: b.Fetch,
	})
}

// Validate parses and binds a statement, returning the first error.
func (s *Session) Validate(stmt string) error {
	_, err := s.bindContext(context.Background(), stmt)
	return err
}

// MustExec is Exec that panics on error; intended for examples.
func (s *Session) MustExec(stmt string) *exec.Result {
	r, err := s.Exec(stmt)
	if err != nil {
		panic(fmt.Errorf("assess: %w", err))
	}
	return r
}
