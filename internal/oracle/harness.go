package oracle

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/assess-olap/assess/internal/colstore"
	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/dist"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/persist"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/storage"
)

// Discrepancy is one observed divergence between an execution axis and
// the reference evaluation, with everything needed to reproduce it.
type Discrepancy struct {
	Seed   int64
	Stmt   string
	Axis   string // e.g. "par+lattice/JOP", "cache/POP warm"
	Detail string
}

// String renders the discrepancy with a one-line repro command.
func (d Discrepancy) String() string {
	return fmt.Sprintf("seed %d, axis %s: %s\n  stmt:  %s\n  repro: ORACLE_SEED=%d go test ./internal/oracle -run TestDifferential",
		d.Seed, d.Axis, d.Detail, d.Stmt, d.Seed)
}

// Report summarizes one differential run.
type Report struct {
	Seed          int64
	Statements    int
	Comparisons   int // result sets checked against the reference
	Discrepancies []Discrepancy
	// Wants holds the reference's canonical rows by statement, for every
	// statement the reference evaluated.
	Wants map[string][]exec.Row
}

// axes are the session configurations the harness cross-checks. The
// reference is NP on the first (serial scan, no views, no cache), itself
// held to the referee (referee_test.go), which evaluates every statement
// from the language's definitions; every other axis must reproduce it
// bit-for-bit on coordinates and labels and ULP-exactly on numeric
// columns, for every feasible strategy. Every axis runs the engine's
// default kernels: the generated key spaces fit the dense budget, and
// the slot-table fallback is held to the same reference in engine's own
// reference tests. The par axes split each scan into morsels across
// workers. The views dimension has two modes: "exact" materializes the
// statements' own group-by sets (views served verbatim), "lattice"
// materializes strictly finer covering views (Case.LatticeViews),
// forcing the aggregate navigator to re-aggregate view cells through the
// roll-up lattice, serially (lattice) and morsel-parallel
// (par+lattice). A cache axis runs every statement cold, a second time
// (the evaluation that is stored) and warm, and its cold run is the same
// configuration without the cache: "cache" is the serial scan and
// "cache+par+views" the morsel-parallel one over exact views, so neither
// has an axis of its own. The segment axes
// write both cubes once per seed as segment directories with segments
// far smaller than the fact (segmentStores), so block-at-a-time scans,
// zone-map pruning, code-space predicates, segment skips and gather
// decode must reproduce the resident reference bit-for-bit; segment+par
// consumes the filtered blocks across worker-stolen morsels and is the
// axis of the concurrent sweep (see Run): every (statement, strategy)
// pair re-executed at once, so concurrent scans over one segment store
// (shared snapshots, pooled scratch) must reproduce the reference too.
// The sharded axis hash-splits both cubes across an in-process cluster
// (1, 2, 3, or 5 shards by seed) and scatter-gathers every scan through
// internal/dist, each worker scanning morsel-parallel: partial
// aggregation on each shard, wire encode/decode, and the engine's
// combine of the replies must reproduce the unsharded reference
// bit-for-bit (the generator's integer-valued measures make every shard
// association order exact).
var axes = []axis{
	{name: "base"},
	{name: "par", parallel: true},
	{name: "views", views: "exact"},
	{name: "lattice", views: "lattice"},
	{name: "par+lattice", parallel: true, views: "lattice"},
	{name: "cache", cache: true},
	{name: "cache+par+views", parallel: true, views: "exact", cache: true},
	{name: "segment", segment: true},
	{name: "segment+par", parallel: true, segment: true, sweep: true},
	{name: "sharded", parallel: true, sharded: true},
}

// axis is one session configuration of the harness.
type axis struct {
	name     string
	parallel bool
	views    string // "", "exact", or "lattice"
	cache    bool   // cold, second and warm runs: the cold run alone is the axis without the cache
	segment  bool
	sweep    bool // also runs the concurrent sweep
	sharded  bool
}

// oracleShardCounts rotates the sharded axis' cluster size by seed:
// a 1-shard cluster pins the degenerate fan-out of one reply, the
// larger counts exercise genuine cross-shard merges. Over a wide sweep every
// count is hit many times.
var oracleShardCounts = []int{1, 2, 3, 5}

// shardCountFor picks the sharded axis' cluster size for a seed.
func shardCountFor(seed int64) int {
	return oracleShardCounts[int(seed)%len(oracleShardCounts)]
}

// oracleWorkers is the scan parallelism of the parallel axes, and
// oracleMorselRows the morsel size, which is also each worker's row floor:
// low enough that the generated facts (hundreds to a few thousand rows)
// genuinely split into more morsels than workers, so work-stealing and
// the partial-state merges are on the tested path.
const (
	oracleWorkers    = 4
	oracleMorselRows = 53
)

// oracleSegmentRows keeps segment-axis segments far smaller than the
// generated facts (hundreds to a few thousand rows), so every sweep
// crosses many segment boundaries.
const oracleSegmentRows = 256

// traceEnabled turns on span collection for every oracle execution
// (ORACLE_TRACE=1): each statement runs under a live trace, proving the
// instrumentation path produces identical results to the plain path,
// and every finished trace is checked for well-formedness.
var traceEnabled = os.Getenv("ORACLE_TRACE") == "1"

// execTracked runs a statement, under a trace when ORACLE_TRACE=1, and
// returns the finished root span (nil when tracing is off) alongside
// the usual results.
func execTracked(s *core.Session, stmt string, strat plan.Strategy) (*exec.Result, core.CacheState, *obsv.Span, error) {
	if !traceEnabled {
		res, state, err := s.ExecWithTracked(stmt, strat)
		return res, state, nil, err
	}
	ctx, tr := obsv.NewTrace(context.Background(), "oracle")
	res, state, err := s.ExecWithTrackedContext(ctx, stmt, strat)
	return res, state, tr.Finish(), err
}

// checkTrace validates a finished span tree: positive durations, named
// spans, and children fully contained in the statement's span set.
func checkTrace(root *obsv.Span) string {
	if root == nil {
		return "trace missing"
	}
	var walk func(s *obsv.Span) string
	walk = func(s *obsv.Span) string {
		if s.Name == "" {
			return "unnamed span"
		}
		if s.Duration < 0 {
			return fmt.Sprintf("span %s: negative duration %v", s.Name, s.Duration)
		}
		for _, c := range s.Children {
			if msg := walk(c); msg != "" {
				return msg
			}
		}
		return ""
	}
	return walk(root)
}

// segmentOpts keeps the oracle's segment layout deterministic: segments
// far smaller than the generated facts and background compaction off.
var segmentOpts = colstore.Options{SegmentRows: oracleSegmentRows, AutoCompactRows: -1}

// segmentCopy rebuilds a resident fact table as a segment-backed one in
// a fresh temp directory. The returned cleanup closes the store and
// removes the directory.
func segmentCopy(f *storage.FactTable) (*storage.FactTable, func(), error) {
	dir, err := os.MkdirTemp("", "oracle-seg-")
	if err != nil {
		return nil, nil, err
	}
	if err := persist.SaveCubeDir(dir, f, segmentOpts); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	seg, st, err := persist.OpenCubeDir(dir, segmentOpts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return seg, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// segmentStores writes each cube of the case as a segment directory and
// opens it once: the (fact, external) pair both segment axes share, since
// neither appends or compacts. The cleanup closes both stores and removes
// both directories.
func segmentStores(c *Case) (fact, ext *storage.FactTable, cleanup func(), err error) {
	fact, closeFact, err := segmentCopy(c.Fact)
	if err != nil {
		return nil, nil, nil, err
	}
	ext, closeExt, err := segmentCopy(c.ExtFact)
	if err != nil {
		closeFact()
		return nil, nil, nil, err
	}
	// The copies decode their hierarchies independently; restore the
	// pointer sharing external-benchmark joins require.
	persist.ReconcileSchemas(fact.Schema, ext.Schema)
	return fact, ext, func() { closeFact(); closeExt() }, nil
}

// shardSession splits both cubes across an in-process cluster of n
// workers (hash-sharded on the first hierarchy's base level) and
// installs a scatter-gather coordinator on s. parallel gives every
// worker the parallel axes' morsel-parallel scans.
func shardSession(s *core.Session, fact, ext *storage.FactTable, n int, parallel bool) error {
	level := mdm.LevelRef{Hier: 0, Level: 0}
	lc := dist.NewLocalCluster(n)
	if err := lc.AddFact(TargetCube, fact, level); err != nil {
		return err
	}
	if err := lc.AddFact(ExtCube, ext, level); err != nil {
		return err
	}
	for _, w := range lc.Workers {
		if parallel {
			w.Engine().SetParallelism(oracleWorkers)
			w.Engine().SetMorselSize(oracleMorselRows)
		}
	}
	coord := dist.NewCoordinator(s.Engine, dist.Config{})
	if err := coord.AddTable(TargetCube, level, lc.Clients(), true); err != nil {
		return err
	}
	if err := coord.AddTable(ExtCube, level, lc.Clients(), true); err != nil {
		return err
	}
	s.EnableDistributed(coord)
	return nil
}

// buildSession registers fact and ext (the case's cubes, or their
// segment-backed copies) in a new session configured as ax.
func buildSession(c *Case, ax axis, fact, ext *storage.FactTable, shards int) (*core.Session, error) {
	s := core.NewSession()
	if err := s.RegisterCube(TargetCube, fact); err != nil {
		return nil, err
	}
	if err := s.RegisterCube(ExtCube, ext); err != nil {
		return nil, err
	}
	if ax.parallel {
		s.Engine.SetParallelism(oracleWorkers)
		s.Engine.SetMorselSize(oracleMorselRows)
	}
	if ax.views != "" {
		// The hierarchies are shared, so every view level set applies to
		// the external cube too, putting the view path under the benchmark
		// queries as well as the target queries.
		sets := c.Views
		if ax.views == "lattice" {
			sets = c.LatticeViews
		}
		for _, v := range sets {
			if err := s.Materialize(TargetCube, v...); err != nil {
				return nil, err
			}
			if err := s.Materialize(ExtCube, v...); err != nil {
				return nil, err
			}
		}
	}
	if ax.cache {
		s.EnableCache(0)
	}
	if shards > 0 {
		if err := shardSession(s, fact, ext, shards, ax.parallel); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run generates the case for a seed and cross-checks every statement
// along every axis. Generator-level failures (a statement that fails to
// parse, render round-trip, or bind) are reported as discrepancies too:
// the generator is constrained to emit well-typed statements, so any
// rejection is a bug on one side of that contract.
func Run(seed int64) *Report {
	c := Generate(seed)
	rep := &Report{Seed: seed, Statements: len(c.Statements)}
	add := func(stmt, axis, detail string) {
		rep.Discrepancies = append(rep.Discrepancies, Discrepancy{
			Seed: seed, Stmt: stmt, Axis: axis, Detail: detail,
		})
	}

	segFact, segExt, cleanup, err := segmentStores(c)
	if err != nil {
		add("", "setup/segment", err.Error())
		return rep
	}
	defer cleanup()
	sessions := make([]*core.Session, len(axes))
	for i, ax := range axes {
		fact, ext, shards := c.Fact, c.ExtFact, 0
		if ax.segment {
			fact, ext = segFact, segExt
		}
		if ax.sharded {
			shards = shardCountFor(seed)
		}
		s, err := buildSession(c, ax, fact, ext, shards)
		if err != nil {
			add("", "setup/"+ax.name, err.Error())
			return rep
		}
		sessions[i] = s
	}
	base := sessions[0]

	// References for the concurrent sweep below and the caller.
	wants := make(map[string][]exec.Row, len(c.Statements))
	rep.Wants = wants
	kinds := make(map[string]parser.BenchmarkKind, len(c.Statements))

	for _, stmt := range c.Statements {
		// Parse → render → parse round trip: the generator renders from an
		// AST, so the text is already canonical and must survive unchanged.
		st, err := parser.Parse(stmt)
		if err != nil {
			add(stmt, "parse", err.Error())
			continue
		}
		if got := st.Render(); got != stmt {
			add(stmt, "render-roundtrip", fmt.Sprintf("re-rendered as %q", got))
		}
		kind, err := base.BenchmarkKind(stmt)
		if err != nil {
			add(stmt, "bind", err.Error())
			continue
		}
		ref, _, span, err := execTracked(base, stmt, plan.NP)
		if err != nil {
			add(stmt, "base/NP", err.Error())
			continue
		}
		if traceEnabled {
			if msg := checkTrace(span); msg != "" {
				add(stmt, "base/NP trace", msg)
			}
		}
		want, err := canonRows(ref)
		if err != nil {
			add(stmt, "base/NP", err.Error())
			continue
		}
		wants[stmt] = want
		kinds[stmt] = kind

		for i, ax := range axes {
			sess := sessions[i]
			for _, strat := range core.FeasibleStrategies(kind) {
				runs := 1
				if ax.cache {
					runs = 3 // cold sighting, second run stored, warm hit
				}
				var last qcache.State
				for r := 0; r < runs; r++ {
					axis := fmt.Sprintf("%s/%v", ax.name, strat)
					if ax.cache {
						axis += [...]string{" cold", " second", " warm"}[r]
					}
					// The cold expectation comes from a probe of the same
					// session, so statements whose bound plans collide on one
					// fingerprint (e.g. an explicit using clause spelling out
					// the default) are expected to hit on their first run. A
					// result is stored on its second evaluation at a
					// generation: the second run repeats the first run's
					// state, and the warm run hits.
					expect := qcache.StateOff
					if ax.cache {
						switch r {
						case 0:
							expect = qcache.StateMiss
							if p, perr := sess.PrepareWith(stmt, strat); perr == nil {
								expect = sess.CacheProbe(p)
							}
						case 1:
							expect = last
						case 2:
							expect = qcache.StateHit
						}
					}
					res, state, span, err := execTracked(sess, stmt, strat)
					last = state
					if err != nil {
						add(stmt, axis, err.Error())
						break
					}
					if traceEnabled {
						if msg := checkTrace(span); msg != "" {
							add(stmt, axis+" trace", msg)
						}
					}
					if state != expect {
						add(stmt, axis, fmt.Sprintf("cache state %q, expected %q", state, expect))
					}
					got, err := canonRows(res)
					if err != nil {
						add(stmt, axis, err.Error())
						break
					}
					if d := diffRows(want, got); d != "" {
						add(stmt, axis, d)
					}
					rep.Comparisons++
				}
			}
		}
	}

	// Concurrent sweep: the per-statement loop above ran one query at a
	// time. Now fire every (statement, strategy) pair at once against the
	// sweep axis' session, so its scans overlap on one segment store;
	// every result must still match the reference bit-for-bit.
	for i, ax := range axes {
		if !ax.sweep {
			continue
		}
		sess := sessions[i]
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, stmt := range c.Statements {
			want, ok := wants[stmt]
			if !ok {
				continue // the reference itself failed; already reported
			}
			for _, strat := range core.FeasibleStrategies(kinds[stmt]) {
				wg.Add(1)
				go func(stmt string, strat plan.Strategy, want []exec.Row) {
					defer wg.Done()
					axis := fmt.Sprintf("%s/%v sweep", ax.name, strat)
					res, _, _, err := execTracked(sess, stmt, strat)
					var detail string
					if err != nil {
						detail = err.Error()
					} else if got, cerr := canonRows(res); cerr != nil {
						detail = cerr.Error()
					} else {
						detail = diffRows(want, got)
					}
					mu.Lock()
					defer mu.Unlock()
					rep.Comparisons++
					if detail != "" {
						add(stmt, axis, detail)
					}
				}(stmt, strat, want)
			}
		}
		wg.Wait()
	}
	return rep
}
